"""A small in-memory relational engine.

This is the "relational system" substrate of Section 5 — built from
scratch because the reproduction may not assume an external database.
It provides:

* :class:`Table` — named columns, optional primary key, secondary hash
  indexes, insert/update/delete with index maintenance;
* :class:`Database` — a named collection of tables with DDL helpers
  (including ``add_column``, needed because GOOD operations evolve the
  scheme);
* a physical plan algebra — :class:`Scan`, :class:`IndexLookup`,
  :class:`Filter`, :class:`HashJoin`, :class:`Project` — whose nodes
  produce iterators of bindings (dicts variable → value), plus a tiny
  greedy join-order planner used by the pattern compiler.

Rows are dicts column → value; ``None`` encodes SQL NULL (an absent
functional property).  All iteration deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import BackendError

Row = Dict[str, Any]
Binding = Dict[str, Any]


class Table:
    """A heap of rows with a primary key and secondary hash indexes."""

    def __init__(self, name: str, columns: Sequence[str], key: Optional[str] = None) -> None:
        if len(set(columns)) != len(columns):
            raise BackendError(f"table {name!r}: duplicate column names")
        self.name = name
        self.columns: List[str] = list(columns)
        self.key = key
        if key is not None and key not in self.columns:
            raise BackendError(f"table {name!r}: key column {key!r} not in columns")
        self._rows: Dict[int, Row] = {}
        self._next_rowid = 0
        self._primary: Dict[Any, int] = {}
        # column -> value -> set of rowids
        self._indexes: Dict[str, Dict[Any, set]] = {}
        # owning Database (set on create/copy/journal-reinstall); used
        # to report imminent mutations to attached undo journals
        self._db: Optional["Database"] = None

    def _notify(self) -> None:
        """Tell the owning database's journals this table will mutate.

        Fired *before* the mutation so a journal can take a
        copy-on-first-write pre-image (at most one per table per
        watermark segment — see
        :class:`repro.txn.journal.RelationalJournal`).
        """
        db = self._db
        if db is not None and db._journals:
            for journal in db._journals:
                journal.table_dirty(self)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def add_column(self, column: str, default: Any = None) -> None:
        """Add a column, backfilling existing rows with ``default``."""
        if column in self.columns:
            return
        self._notify()
        self.columns.append(column)
        for row in self._rows.values():
            row[column] = default

    def create_index(self, column: str) -> None:
        """Create (or rebuild) a secondary hash index on ``column``."""
        if column not in self.columns:
            raise BackendError(f"table {self.name!r}: no column {column!r} to index")
        self._notify()
        index: Dict[Any, set] = {}
        for rowid, row in self._rows.items():
            index.setdefault(row[column], set()).add(rowid)
        self._indexes[column] = index

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        """Insert a row (missing columns become NULL)."""
        full = {column: row.get(column) for column in self.columns}
        extra = set(row) - set(self.columns)
        if extra:
            raise BackendError(f"table {self.name!r}: unknown columns {sorted(extra)!r}")
        if self.key is not None:
            key_value = full[self.key]
            if key_value in self._primary:
                raise BackendError(
                    f"table {self.name!r}: duplicate primary key {key_value!r}"
                )
        self._notify()
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = full
        if self.key is not None:
            self._primary[full[self.key]] = rowid
        for column, index in self._indexes.items():
            index.setdefault(full[column], set()).add(rowid)

    def get(self, key_value: Any) -> Optional[Row]:
        """Primary-key point lookup; returns a copy or ``None``."""
        if self.key is None:
            raise BackendError(f"table {self.name!r} has no primary key")
        rowid = self._primary.get(key_value)
        return dict(self._rows[rowid]) if rowid is not None else None

    def update(self, key_value: Any, changes: Row) -> bool:
        """Point update by primary key; returns whether a row changed."""
        if self.key is None:
            raise BackendError(f"table {self.name!r} has no primary key")
        rowid = self._primary.get(key_value)
        if rowid is None:
            return False
        self._notify()
        row = self._rows[rowid]
        for column, value in changes.items():
            if column not in self.columns:
                raise BackendError(f"table {self.name!r}: unknown column {column!r}")
            if column == self.key and value != key_value:
                raise BackendError(f"table {self.name!r}: cannot change the primary key")
            if column in self._indexes:
                self._indexes[column][row[column]].discard(rowid)
                self._indexes[column].setdefault(value, set()).add(rowid)
            row[column] = value
        return True

    def delete(self, key_value: Any) -> bool:
        """Point delete by primary key."""
        if self.key is None:
            raise BackendError(f"table {self.name!r} has no primary key")
        rowid = self._primary.get(key_value)
        if rowid is None:
            return False
        self._notify()
        self._primary.pop(key_value, None)
        self._drop_rowid(rowid)
        return True

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete every row satisfying ``predicate``; returns the count."""
        victims = [rowid for rowid, row in self._rows.items() if predicate(row)]
        if victims:
            self._notify()
        for rowid in victims:
            row = self._rows[rowid]
            if self.key is not None:
                self._primary.pop(row[self.key], None)
            self._drop_rowid(rowid)
        return len(victims)

    def _drop_rowid(self, rowid: int) -> None:
        row = self._rows.pop(rowid)
        for column, index in self._indexes.items():
            bucket = index.get(row[column])
            if bucket is not None:
                bucket.discard(rowid)
                if not bucket:
                    del index[row[column]]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def rows(self) -> Iterator[Row]:
        """All rows (copies), in insertion order."""
        for rowid in sorted(self._rows):
            yield dict(self._rows[rowid])

    def lookup(self, column: str, value: Any) -> Iterator[Row]:
        """All rows with ``row[column] == value`` (index if available)."""
        index = self._indexes.get(column)
        if index is not None:
            for rowid in sorted(index.get(value, ())):
                yield dict(self._rows[rowid])
            return
        for rowid in sorted(self._rows):
            if self._rows[rowid][column] == value:
                yield dict(self._rows[rowid])

    def count(self) -> int:
        """Number of rows."""
        return len(self._rows)

    def copy(self) -> "Table":
        """Deep copy, indexes included."""
        clone = Table(self.name, list(self.columns), self.key)
        clone._rows = {rowid: dict(row) for rowid, row in self._rows.items()}
        clone._next_rowid = self._next_rowid
        clone._primary = dict(self._primary)
        for column in self._indexes:
            clone.create_index(column)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {self.count()} rows)"


class Database:
    """A named collection of tables."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        # attached undo journals (repro.txn.journal.RelationalJournal)
        self._journals: list = []

    def attach_journal(self, journal: Any) -> None:
        """Attach an undo journal: table mutations and DDL report to it."""
        self._journals.append(journal)

    def detach_journal(self, journal: Any) -> None:
        """Detach a journal previously attached."""
        try:
            self._journals.remove(journal)
        except ValueError:
            raise BackendError("journal is not attached to this database") from None

    def create_table(self, name: str, columns: Sequence[str], key: Optional[str] = None) -> Table:
        """Create a table; error if the name is taken."""
        if name in self._tables:
            raise BackendError(f"table {name!r} already exists")
        table = Table(name, columns, key)
        table._db = self
        self._tables[name] = table
        for journal in self._journals:
            journal.table_created(name)
        return table

    def ensure_table(self, name: str, columns: Sequence[str], key: Optional[str] = None) -> Table:
        """Create the table if absent; return it either way."""
        if name not in self._tables:
            return self.create_table(name, columns, key)
        return self._tables[name]

    def table(self, name: str) -> Table:
        """Look a table up; error if missing."""
        try:
            return self._tables[name]
        except KeyError:
            raise BackendError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether the table exists."""
        return name in self._tables

    def drop_table(self, name: str) -> None:
        """Remove a table if present."""
        table = self._tables.pop(name, None)
        if table is not None:
            table._db = None
            for journal in self._journals:
                journal.table_dropped(name, table)

    def table_names(self) -> Tuple[str, ...]:
        """All table names, sorted."""
        return tuple(sorted(self._tables))

    def copy(self) -> "Database":
        """Deep copy of all tables (journals do not carry over)."""
        clone = Database()
        clone._tables = {name: table.copy() for name, table in self._tables.items()}
        for table in clone._tables.values():
            table._db = clone
        return clone


# ----------------------------------------------------------------------
# physical plan algebra
# ----------------------------------------------------------------------


class PlanNode:
    """Base class: a plan node yields bindings (variable → value)."""

    def execute(self, db: Database) -> Iterator[Binding]:
        """Produce the node's bindings against ``db``."""
        raise NotImplementedError

    def variables(self) -> FrozenSet[str]:
        """The variables this node binds."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """An EXPLAIN-style description of the (sub)plan."""
        raise NotImplementedError


class Scan(PlanNode):
    """Full scan of a table, binding selected columns to variables."""

    def __init__(self, table: str, bindings: Dict[str, str]) -> None:
        self.table = table
        self.bindings = dict(bindings)  # column -> variable

    def execute(self, db: Database) -> Iterator[Binding]:
        for row in db.table(self.table).rows():
            yield {variable: row[column] for column, variable in self.bindings.items()}

    def variables(self) -> FrozenSet[str]:
        return frozenset(self.bindings.values())

    def explain(self, indent: int = 0) -> str:
        return " " * indent + f"Scan({self.table} -> {sorted(self.bindings.values())})"


class IndexLookup(PlanNode):
    """Point lookup ``column = constant`` through an index (or scan)."""

    def __init__(self, table: str, column: str, value: Any, bindings: Dict[str, str]) -> None:
        self.table = table
        self.column = column
        self.value = value
        self.bindings = dict(bindings)

    def execute(self, db: Database) -> Iterator[Binding]:
        for row in db.table(self.table).lookup(self.column, self.value):
            yield {variable: row[column] for column, variable in self.bindings.items()}

    def variables(self) -> FrozenSet[str]:
        return frozenset(self.bindings.values())

    def explain(self, indent: int = 0) -> str:
        return " " * indent + (
            f"IndexLookup({self.table}.{self.column} = {self.value!r} -> "
            f"{sorted(self.bindings.values())})"
        )


class Filter(PlanNode):
    """Keep the child's bindings satisfying a predicate."""

    def __init__(self, child: PlanNode, description: str, predicate: Callable[[Binding], bool]) -> None:
        self.child = child
        self.description = description
        self.predicate = predicate

    def execute(self, db: Database) -> Iterator[Binding]:
        for binding in self.child.execute(db):
            if self.predicate(binding):
                yield binding

    def variables(self) -> FrozenSet[str]:
        return self.child.variables()

    def explain(self, indent: int = 0) -> str:
        return " " * indent + f"Filter({self.description})\n" + self.child.explain(indent + 2)


class HashJoin(PlanNode):
    """Equi-join of two children on their shared variables.

    With no shared variables this degrades to a cross product (still
    hash-driven with a single empty key).
    """

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right
        self.on = tuple(sorted(left.variables() & right.variables()))

    def execute(self, db: Database) -> Iterator[Binding]:
        buckets: Dict[Tuple[Any, ...], List[Binding]] = {}
        for binding in self.left.execute(db):
            key = tuple(binding[variable] for variable in self.on)
            buckets.setdefault(key, []).append(binding)
        for right_binding in self.right.execute(db):
            key = tuple(right_binding[variable] for variable in self.on)
            for left_binding in buckets.get(key, ()):
                merged = dict(left_binding)
                merged.update(right_binding)
                yield merged

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def explain(self, indent: int = 0) -> str:
        head = " " * indent + f"HashJoin(on {list(self.on)})"
        return head + "\n" + self.left.explain(indent + 2) + "\n" + self.right.explain(indent + 2)


class Project(PlanNode):
    """Keep only the given variables in each binding."""

    def __init__(self, child: PlanNode, keep: Sequence[str]) -> None:
        self.child = child
        self.keep = tuple(keep)

    def execute(self, db: Database) -> Iterator[Binding]:
        for binding in self.child.execute(db):
            yield {variable: binding[variable] for variable in self.keep}

    def variables(self) -> FrozenSet[str]:
        return frozenset(self.keep)

    def explain(self, indent: int = 0) -> str:
        return " " * indent + f"Project({list(self.keep)})\n" + self.child.explain(indent + 2)


def estimate_cardinality(plan: PlanNode, db: Database) -> float:
    """A crude cardinality estimate for planning (no histograms).

    Scans cost their table's row count, index point-lookups a single
    row, filters half their child, joins ``min`` of their inputs when
    connected and the product otherwise.
    """
    if isinstance(plan, Scan):
        return float(db.table(plan.table).count()) if db.has_table(plan.table) else 0.0
    if isinstance(plan, IndexLookup):
        return 1.0
    if isinstance(plan, Filter):
        return 0.5 * estimate_cardinality(plan.child, db)
    if isinstance(plan, HashJoin):
        left = estimate_cardinality(plan.left, db)
        right = estimate_cardinality(plan.right, db)
        if plan.on:
            return max(1.0, min(left, right))
        return left * right
    if isinstance(plan, Project):
        return estimate_cardinality(plan.child, db)
    return 1.0


def join_by_cost(leaves: Sequence[PlanNode], db: Database) -> PlanNode:
    """Cost-based join ordering: repeatedly merge the cheapest pair.

    Connected joins estimate ``min`` of the inputs, cross products the
    product, so anchored point-lookups are pulled to the front — the
    classic selectivity-first heuristic.  Falls back to exactly the
    same plans as :func:`join_greedily` on uniform inputs.
    """
    if not leaves:
        raise BackendError("cannot build a plan from zero leaves")
    remaining: List[PlanNode] = list(leaves)
    while len(remaining) > 1:
        best: Optional[Tuple[float, int, int]] = None
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                joined = HashJoin(remaining[i], remaining[j])
                cost = estimate_cardinality(joined, db)
                if not joined.on:
                    cost *= 10.0  # discourage cross products
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        _, i, j = best
        merged = HashJoin(remaining[i], remaining[j])
        remaining = [
            plan for index, plan in enumerate(remaining) if index not in (i, j)
        ] + [merged]
    return remaining[0]


def join_greedily(leaves: Sequence[PlanNode]) -> PlanNode:
    """Greedy join-order planner: prefer joins sharing variables.

    Starts from the first leaf and repeatedly joins in the leaf sharing
    the most variables with the plan so far (connected joins before
    cross products), which keeps intermediate results small for the
    tree-shaped patterns GOOD figures use.
    """
    if not leaves:
        raise BackendError("cannot build a plan from zero leaves")
    remaining = list(leaves)
    plan = remaining.pop(0)
    while remaining:
        bound = plan.variables()
        remaining.sort(key=lambda leaf: -len(leaf.variables() & bound))
        plan = HashJoin(plan, remaining.pop(0))
    return plan
