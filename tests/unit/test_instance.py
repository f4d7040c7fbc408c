"""Unit tests for object base instances and their four constraints."""

import pytest

from repro.core import Instance, InstanceError, Scheme
from repro.core.errors import DomainError
from repro.graph import NO_PRINT


def test_add_object_and_printable(tiny_scheme):
    db = Instance(tiny_scheme)
    person = db.add_object("Person")
    name = db.printable("String", "alice")
    assert db.label_of(person) == "Person"
    assert db.print_of(name) == "alice"


def test_object_label_checked(tiny_scheme):
    db = Instance(tiny_scheme)
    with pytest.raises(InstanceError):
        db.add_object("Martian")
    with pytest.raises(InstanceError):
        db.add_object("String")  # printable label used as object


def test_printable_label_checked(tiny_scheme):
    db = Instance(tiny_scheme)
    with pytest.raises(InstanceError):
        db.add_printable("Person")


def test_object_nodes_cannot_carry_prints(tiny_scheme):
    db = Instance(tiny_scheme)
    with pytest.raises(InstanceError):
        db.add_node("Person", "value")


def test_print_value_domain_checked(tiny_scheme):
    db = Instance(tiny_scheme)
    with pytest.raises(DomainError):
        db.printable("Number", "not-a-number")


def test_printable_uniqueness_constraint(tiny_scheme):
    """Constraint 4: one node per (printable label, value)."""
    db = Instance(tiny_scheme)
    first = db.printable("String", "x")
    assert db.printable("String", "x") == first  # get-or-create
    with pytest.raises(InstanceError):
        db.add_printable("String", "x")


def test_unvalued_printables_may_coexist(tiny_scheme):
    db = Instance(tiny_scheme)
    a = db.add_printable("String")
    b = db.add_printable("String")
    assert a != b
    assert db.print_of(a) is NO_PRINT


def test_edge_requires_scheme_property(tiny_scheme):
    db = Instance(tiny_scheme)
    p = db.add_object("Person")
    num = db.printable("Number", 1)
    with pytest.raises(InstanceError):
        db.add_edge(p, "name", num)  # name targets String, not Number


def test_functional_edge_single_target(tiny_scheme):
    """Constraint 3 (functional part)."""
    db = Instance(tiny_scheme)
    p = db.add_object("Person")
    db.add_edge(p, "name", db.printable("String", "a"))
    with pytest.raises(InstanceError):
        db.add_edge(p, "name", db.printable("String", "b"))


def test_functional_edge_duplicate_is_noop(tiny_scheme):
    db = Instance(tiny_scheme)
    p = db.add_object("Person")
    n = db.printable("String", "a")
    assert db.add_edge(p, "name", n)
    assert not db.add_edge(p, "name", n)


def test_multivalued_targets_same_label():
    """Constraint 3 (same-label part) for multivalued edges."""
    scheme = Scheme(printable_labels=["P", "Q"])
    scheme.declare("A", "rel", "P", functional=False)
    scheme.declare("A", "rel", "Q", functional=False)
    db = Instance(scheme)
    a = db.add_object("A")
    db.add_edge(a, "rel", db.printable("P", 1))
    db.add_edge(a, "rel", db.printable("P", 2))  # same label fine
    with pytest.raises(InstanceError):
        db.add_edge(a, "rel", db.printable("Q", 1))  # mixed labels


def test_incomplete_information_is_allowed(tiny_scheme):
    """Section 2: absent edges model unknown information."""
    db = Instance(tiny_scheme)
    db.add_object("Person")  # no name, no age, no edges at all
    db.validate()


def test_remove_node_cascades(tiny_instance):
    people = sorted(tiny_instance.nodes_with_label("Person"))
    tiny_instance.remove_node(people[0])
    tiny_instance.validate()
    assert len(tiny_instance.nodes_with_label("Person")) == 2


def test_functional_target_helper(tiny_instance):
    person = min(tiny_instance.nodes_with_label("Person"))
    name = tiny_instance.functional_target(person, "name")
    assert tiny_instance.print_of(name) == "alice"
    assert tiny_instance.functional_target(person, "modified" if False else "age") is not None


def test_copy_independence(tiny_instance):
    clone = tiny_instance.copy()
    clone.remove_node(min(clone.nodes_with_label("Person")))
    assert len(tiny_instance.nodes_with_label("Person")) == 3


def test_set_print_enforces_uniqueness(tiny_scheme):
    db = Instance(tiny_scheme)
    db.printable("String", "x")
    bare = db.add_printable("String")
    with pytest.raises(InstanceError):
        db.set_print(bare, "x")
    db.set_print(bare, "y")
    assert db.find_printable("String", "y") == bare


def test_set_print_on_object_rejected(tiny_scheme):
    db = Instance(tiny_scheme)
    person = db.add_object("Person")
    with pytest.raises(InstanceError):
        db.set_print(person, "oops")


def test_restrict_to_drops_foreign_structure(tiny_scheme, tiny_instance):
    bigger = tiny_scheme.copy()
    bigger.declare("Robot", "serial", "Number")
    db = tiny_instance.copy(scheme=bigger)
    robot = db.add_object("Robot")
    db.add_edge(robot, "serial", db.printable("Number", 7))
    db.restrict_to(tiny_scheme)
    assert db.nodes_with_label("Robot") == frozenset()
    db.validate()


def test_restrict_to_drops_foreign_edges_keeps_nodes(tiny_scheme, tiny_instance):
    bigger = tiny_scheme.copy()
    bigger.declare("Person", "likes", "Person", functional=False)
    db = tiny_instance.copy(scheme=bigger)
    people = sorted(db.nodes_with_label("Person"))
    db.add_edge(people[0], "likes", people[1])
    db.restrict_to(tiny_scheme)
    assert not db.has_edge(people[0], "likes", people[1])
    assert db.has_node(people[0])
    db.validate()


def test_validate_full_rescan(tiny_instance):
    tiny_instance.validate()
    # corrupt through the raw store: duplicate print values
    tiny_instance.store.add_node("String", "alice")
    with pytest.raises(InstanceError):
        tiny_instance.validate()


def _corrupt_store(db, case):
    store = db.store
    alice, carol = min(db.nodes_with_label("Person")), max(db.nodes_with_label("Person"))
    if case == "duplicate print":
        store.add_node("String", "alice")
    elif case == "mixed successor labels":
        store.add_edge(alice, "knows", min(db.nodes_with_label("String")))
    elif case == "functional edge twice":
        store.add_edge(alice, "name", store.add_node("String", "alias"))
    elif case == "object node with print":
        store.add_node("Person", "oops")
    elif case == "undeclared label":
        store.add_node("Robot")
    elif case == "edge triple not permitted":
        store.add_edge(carol, "age", store.add_node("String", "thirty"))  # carol has no age yet


VALIDATE_CORRUPTIONS = {
    "duplicate print": r"duplicate printable node for \('String', 'alice'\)",
    "mixed successor labels": r"node 0 has 'knows'-successors with mixed labels \['Person', 'String'\]",
    "functional edge twice": "functional edge 'name' leaves node 0 2 times",
    "object node with print": "object node 8 carries a print value",
    "undeclared label": "node 8 has undeclared label 'Robot'",
    "edge triple not permitted": r"edge triple \('Person', 'age', 'String'\) is not permitted",
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CORRUPTIONS))
def test_validate_names_each_violated_constraint(tiny_instance, case):
    """The column-wise validate reports each constraint with the
    message the node-by-node oracle gives."""
    from repro.testing import validate_per_node

    _corrupt_store(tiny_instance, case)
    for check in (Instance.validate, validate_per_node):
        with pytest.raises(InstanceError, match=VALIDATE_CORRUPTIONS[case]):
            check(tiny_instance)


def test_validate_checks_pending_overlay_edges(tiny_scheme):
    """Edges still in a column's pending overlay are validated too."""
    db = Instance(tiny_scheme)
    people = [db.add_object("Person") for _ in range(3)]
    db.add_edge(people[0], "knows", people[1])
    db.store.add_edge(people[0], "knows", db.printable("String", "x"))
    with pytest.raises(InstanceError, match="mixed labels"):
        db.validate()
