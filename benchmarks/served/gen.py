"""Seeded inputs: the FlightPlan graph and one request stream per workload.

Everything the server sees comes from here and is a function of the
seed alone: the instance file it LOADs and the requests the clients
send.  A request is a dict ``{"kind": "read"|"write", "verb", "args",
"probe"}``; ``probe`` (writes only) is a MATCH pattern that reads back
what the write touched, so the correctness and durability checks can
ask the server about any acknowledged write.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterator, List, Tuple

from repro.core import Instance, Scheme

#: Graph size.  The issue asked for twice this; it is halved so three
#: set-ups plus the measured phase fit the driver's per-run time cap.
SCALE = {"pilots": 2000, "aircraft": 250, "flights": 10000, "ratings_per_pilot": 3, "crew_per_flight": 2}
QUICK_SCALE = {"pilots": 200, "aircraft": 25, "flights": 1000, "ratings_per_pilot": 3, "crew_per_flight": 2}

ZIPF_EXPONENT = 1.1
#: Aircraft tails the anchored join templates draw from: with the two
#: constant-free templates that is 34 distinct plans, well inside the
#: 128-plan cache, where ``point_read``'s pilot names are far outside.
JOIN_ANCHORS = 16

WORKLOADS = ("point_read", "join_read", "write_commit", "mixed_rw", "routed_point_read")
#: Closed-loop client connections per workload (never above nproc = 2).
#: The point-read workloads need two: with one, every request waits on
#: several thread wake-ups, and on this 2-vCPU VM their cost depends on
#: whether the scheduler happens to keep client, event loop and worker
#: thread on one CPU (p50 0.43 ms) or not (0.75 ms) — a coin tossed per
#: run.  A second client keeps the server busy and the coin out of it.
CLIENTS = {"point_read": 2, "join_read": 1, "write_commit": 1, "mixed_rw": 2, "routed_point_read": 2}

Request = Dict[str, Any]


def build_scheme() -> Scheme:
    scheme = Scheme(printable_labels=["String"])
    scheme.declare("Pilot", "name", "String")
    scheme.declare("Aircraft", "tail", "String")
    scheme.declare("Flight", "pilot", "Pilot")
    scheme.declare("Flight", "aircraft", "Aircraft")
    scheme.declare("Flight", "crew", "Pilot", functional=False)
    scheme.declare("Pilot", "rated", "Aircraft", functional=False)
    return scheme


class World:
    """The generated graph plus what the request generators need of it."""

    def __init__(self, seed: int, scale: Dict[str, int]) -> None:
        rng = random.Random(seed)
        self.scale = scale
        self.pilot_names = [f"pilot-{i:05d}" for i in range(scale["pilots"])]
        self.tails = [f"N{i:04d}" for i in range(scale["aircraft"])]
        instance = Instance(build_scheme())
        pilots = []
        for name in self.pilot_names:
            pilot = instance.add_object("Pilot")
            instance.add_edge(pilot, "name", instance.printable("String", name))
            pilots.append(pilot)
        aircraft = []
        for tail in self.tails:
            craft = instance.add_object("Aircraft")
            instance.add_edge(craft, "tail", instance.printable("String", tail))
            aircraft.append(craft)
        #: initial (pilot index, aircraft index) ratings: deledge targets
        self.ratings: List[Tuple[int, int]] = []
        for index, pilot in enumerate(pilots):
            for craft_index in rng.sample(range(len(aircraft)), scale["ratings_per_pilot"]):
                instance.add_edge(pilot, "rated", aircraft[craft_index])
                self.ratings.append((index, craft_index))
        for _ in range(scale["flights"]):
            flight = instance.add_object("Flight")
            instance.add_edge(flight, "pilot", rng.choice(pilots))
            instance.add_edge(flight, "aircraft", rng.choice(aircraft))
            for member in rng.sample(pilots, scale["crew_per_flight"]):
                instance.add_edge(flight, "crew", member)
        self.instance = instance
        # which pilot holds which popularity rank differs per seed
        self.ranked_names = list(self.pilot_names)
        rng.shuffle(self.ranked_names)
        self.zipf_cum = list(
            itertools.accumulate(1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, len(self.ranked_names) + 1))
        )
        self.rated = set(self.ratings)


# ----------------------------------------------------------------------
# request templates
# ----------------------------------------------------------------------
def _match(pattern: str, limit: Any = None) -> Request:
    args: Dict[str, Any] = {"pattern": pattern}
    if limit is not None:
        args["limit"] = limit
    return {"kind": "read", "verb": "MATCH", "args": args}


def _run(program: str, probe: str) -> Request:
    return {"kind": "write", "verb": "RUN", "args": {"program": program}, "probe": probe}


def point_pattern(name: str) -> str:
    return (
        f'{{ f: Flight; p: Pilot; a: Aircraft; n: String = "{name}"; '
        "p -name-> n; f -pilot-> p; f -aircraft-> a }"
    )


def _pair(name: str, tail: str) -> str:
    return f'p: Pilot; a: Aircraft; pn: String = "{name}"; p -name-> pn; t: String = "{tail}"; a -tail-> t'


#: The two triangles carry 70 % of the requests (JOIN_WEIGHTS) and cost
#: ten times the anchored templates, so both the median and the p95 sit
#: inside the triangles' cost band instead of on a boundary between two.
JOIN_TEMPLATES = (
    # flights whose pilot is rated on the aircraft flown (cyclic)
    lambda tail: "{ p: Pilot; a: Aircraft; f: Flight; p -rated->> a; f -pilot-> p; f -aircraft-> a }",
    # flights carrying a crew member rated on the aircraft (cyclic)
    lambda tail: "{ c: Pilot; a: Aircraft; f: Flight; f -crew->> c; c -rated->> a; f -aircraft-> a }",
    # pilot -> flight -> aircraft chain from one tail, widened by the pilot's ratings
    lambda tail: (
        f'{{ t: String = "{tail}"; a: Aircraft; f: Flight; p: Pilot; o: Aircraft; '
        "a -tail-> t; f -aircraft-> a; f -pilot-> p; p -rated->> o }"
    ),
    # aircraft star: every (flight, rated pilot) pair around one tail
    lambda tail: (
        f'{{ t: String = "{tail}"; a: Aircraft; f: Flight; p: Pilot; '
        "a -tail-> t; f -aircraft-> a; p -rated->> a }"
    ),
)
JOIN_WEIGHTS = (35, 35, 15, 15)


# ----------------------------------------------------------------------
# streams (infinite; the harness takes what the measured time needs)
# ----------------------------------------------------------------------
def point_reads(world: World, rng: random.Random) -> Iterator[Request]:
    while True:
        for name in rng.choices(world.ranked_names, cum_weights=world.zipf_cum, k=1024):
            yield _match(point_pattern(name))


def join_reads(world: World, rng: random.Random) -> Iterator[Request]:
    anchors = rng.sample(world.tails, min(JOIN_ANCHORS, len(world.tails)))
    while True:
        (template,) = rng.choices(JOIN_TEMPLATES, weights=JOIN_WEIGHTS)
        yield _match(template(rng.choice(anchors)), limit=100)


def writes(world: World, rng: random.Random, tag: str) -> Iterator[Request]:
    """40/30/20/10 addnode Pilot / addnode Flight / addedge / deledge.

    Every write commutes with every other (fresh names carry ``tag``,
    added ratings are never initial ones, deleted ratings always are),
    so two clients interleaving their streams end in the same graph
    whatever the commit order.
    """
    removable = list(world.ratings)
    rng.shuffle(removable)
    pilots, tails = world.pilot_names, world.tails
    for serial in itertools.count():
        draw = rng.random()
        if draw < 0.4:
            name = f"new-{tag}-{serial:06d}"
            yield _run(
                f'addnode Pilot(name -> n) {{ n: String = "{name}" }}',
                f'{{ p: Pilot; n: String = "{name}"; p -name-> n }}',
            )
        elif draw < 0.7:
            pair = _pair(rng.choice(pilots), rng.choice(tails))
            yield _run(
                f"addnode Flight(pilot -> p, aircraft -> a) {{ {pair} }}",
                f"{{ f: Flight; {pair}; f -pilot-> p; f -aircraft-> a }}",
            )
        elif draw < 0.9 or not removable:
            pilot, craft = rng.randrange(len(pilots)), rng.randrange(len(tails))
            while (pilot, craft) in world.rated:
                craft = rng.randrange(len(tails))
            pair = _pair(pilots[pilot], tails[craft])
            yield _run(f"addedge {{ {pair} }} add p -rated->> a", f"{{ {pair}; p -rated->> a }}")
        else:
            pilot, craft = removable.pop()
            pair = _pair(pilots[pilot], tails[craft])
            yield _run(
                f"deledge {{ {pair}; p -rated->> a }} del p -rated->> a", f"{{ {pair}; p -rated->> a }}"
            )


def mixed(world: World, rng: random.Random, tag: str) -> Iterator[Request]:
    reads, commits = point_reads(world, rng), writes(world, rng, tag)
    while True:
        yield next(commits) if rng.random() < 0.1 else next(reads)


def streams(workload: str, world: World, seed: int) -> List[Iterator[Request]]:
    """One request iterator per client connection of ``workload``."""
    # the routed stream is the direct one: same names, same order
    source = "point_read" if workload == "routed_point_read" else workload
    out = []
    for client in range(CLIENTS[workload]):
        rng = random.Random(f"{seed}/{source}/{client}")
        if source == "point_read":
            out.append(point_reads(world, rng))
        elif source == "join_read":
            out.append(join_reads(world, rng))
        elif source == "write_commit":
            out.append(writes(world, rng, f"c{client}"))
        elif source == "mixed_rw":
            out.append(mixed(world, rng, f"c{client}"))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out
