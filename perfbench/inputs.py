"""Seeded inputs: the catalog snapshot each workload boots and its request stream.

Everything here is a pure function of ``--seed``.  The server only ever sees
the snapshot file and the encoded request bodies built here.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Rows of the explore-100k population (the ``--synthetic 100000`` shape).
EXPLORE_ROWS = 100_000
EXPLORE_DATASET = f"synthetic-{EXPLORE_ROWS}"
WARM_DATASET = "synthetic-500"

#: The levels below are chosen, not measured: no trace of real analyst
#: sessions exists to draw them from.  ``min_partition_size`` levels an
#: analyst tries on the 100k population; 200 yields 100+ partitions (a
#: quadratic ``pairwise`` payload of ~0.8MB).
EXPLORE_MIN_SIZES = (200, 500, 2000)

#: Attribute classes: every protected attribute, all but one categorical
#: attribute, or a subset of the categorical ones.  The first two keep the
#: ordinal attributes, whose many values make the costly views.
EXPLORE_ATTRIBUTE_CLASSES = ("all", "broad", "categorical")

EXPLORE_BINS = (4, 5, 6, 8, 10)

#: Range of the "Language Test" weight of a sweep point (Rating gets the
#: rest): an analyst nudging the weights around the balanced function.
EXPLORE_SWEEP_RANGE = (0.3, 0.7)

#: The opening view: most unfair partitioning over every protected attribute.
EXPLORE_OPENING_MIN_SIZE = 500

#: (kind, objective) slots of one explore round: every kind the workload
#: names with every objective, in equal shares.
EXPLORE_KINDS = ("quantify", "breakdown", "compare", "sweep")
EXPLORE_OBJECTIVES = ("most_unfair", "least_unfair")
EXPLORE_BLOCK = tuple(itertools.product(EXPLORE_KINDS, EXPLORE_OBJECTIVES))

#: Fresh requests pre-generated for one explore run (33 rounds); the
#: stream wraps around, as revisits, if a run ever consumes more.
EXPLORE_FRESH = 2376

LINEAR_FUNCTIONS = {
    "balanced": {"Language Test": 0.5, "Rating": 0.5},
    "language-heavy": {"Language Test": 0.8, "Rating": 0.2},
    "rating-heavy": {"Language Test": 0.2, "Rating": 0.8},
}


@dataclass(frozen=True)
class Request:
    """One distinct request: its wire form, pre-encoded."""

    kind: str
    wire: Dict[str, object]
    body: bytes

    @property
    def path(self) -> str:
        return f"/v2/{self.kind}"


def _request(wire: Dict[str, object]) -> Request:
    return Request(kind=str(wire["kind"]), wire=wire, body=json.dumps(wire).encode("utf-8"))


def _functions(service, names: Sequence[str]) -> None:
    from repro import LinearScoringFunction

    for name in names:
        service.register_function(LinearScoringFunction(LINEAR_FUNCTIONS[name], name=name))


def _timed_fingerprint(dataset) -> float:
    """Seconds ``fingerprint_dataset`` takes on a freshly built (unmemoised) dataset."""
    import time

    from repro.service.fingerprint import fingerprint_dataset

    started = time.perf_counter()
    fingerprint_dataset(dataset)
    return time.perf_counter() - started


def build_warm_snapshot(seed: int, path: Path) -> float:
    """The serving-benchmark catalog: two small populations, a marketplace, two functions.

    Returns the fingerprint seconds of the larger population.
    """
    from repro import FairnessService
    from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population

    largest = synthetic_population(size=500, seed=seed)
    fingerprint_s = _timed_fingerprint(largest)
    service = FairnessService()
    service.register_dataset(largest, name=WARM_DATASET)
    service.register_dataset(synthetic_population(size=200, seed=seed), name="synthetic-200")
    _functions(service, ("balanced", "language-heavy"))
    service.register_marketplace(crowdsourcing_marketplace(size=120, seed=seed))
    service.catalog.save(path)
    return fingerprint_s


def warm_cycle() -> List[Request]:
    """The 8-request cycle covering all seven protocol-v2 kinds."""
    return [
        _request(wire)
        for wire in (
            {"kind": "quantify", "dataset": WARM_DATASET, "function": "balanced",
             "min_partition_size": 5},
            {"kind": "quantify", "dataset": "synthetic-200", "function": "language-heavy",
             "min_partition_size": 5},
            {"kind": "audit", "marketplace": "crowdsourcing-sim", "min_partition_size": 5},
            {"kind": "compare", "dataset": "synthetic-200",
             "functions": ["balanced", "language-heavy"], "min_partition_size": 5},
            {"kind": "breakdown", "dataset": WARM_DATASET, "function": "balanced"},
            {"kind": "sweep", "dataset": "synthetic-200", "function": "balanced", "steps": 3,
             "min_partition_size": 5},
            {"kind": "end_user", "group": {"Gender": "Female"},
             "marketplaces": ["crowdsourcing-sim"], "job": "Content writing"},
            {"kind": "job_owner", "marketplace": "crowdsourcing-sim", "job": "Data labelling",
             "sweep_steps": 3, "min_partition_size": 5},
        )
    ]


def warm_offsets(seed: int, connections: int) -> List[int]:
    """Where in the cycle each connection starts (seeded)."""
    rng = random.Random(seed)
    return [rng.randrange(len(warm_cycle())) for _ in range(connections)]


def build_explore_snapshot(seed: int, path: Path) -> Tuple[List[str], List[str], float]:
    """Snapshot a row-built 100k population plus three functions.

    Returns the population's categorical and ordinal protected attribute
    names and its fingerprint seconds.
    """
    from repro import FairnessService
    from repro.experiments.workloads import synthetic_population

    population = synthetic_population(size=EXPLORE_ROWS, seed=seed)
    fingerprint_s = _timed_fingerprint(population)
    service = FairnessService()
    service.register_dataset(population, name=EXPLORE_DATASET)
    _functions(service, tuple(LINEAR_FUNCTIONS))
    service.catalog.save(path)
    protected = [population.schema.attribute(n) for n in population.schema.protected_names]
    categorical = [a.name for a in protected if a.atype.value == "categorical"]
    ordinal = [a.name for a in protected if a.atype.value != "categorical"]
    return categorical, ordinal, fingerprint_s


def explore_stream(
    seed: int, categorical: Sequence[str], ordinal: Sequence[str]
) -> Tuple[List[Request], List[int]]:
    """Distinct requests plus the order one analyst sends them in.

    The order opens with a quantify over every protected attribute, then
    runs rounds.  A round holds one fresh request per cell of (kind,
    objective) slot (``EXPLORE_BLOCK``) x minimum partition size x attribute
    class; after every third fresh request one revisit repeats a random
    earlier request, so about 1 request in 4 is a revisit.  The order of
    the cells, and the functions and bins each cell cycles through, are the
    same for every seed, so every run of a given length sends the same mix
    of cheap and costly requests and reuses the same search results; the
    seed draws the attributes within each class, the sweep weights and the
    revisit targets.  A cell whose parameter space is used up sends a
    revisit instead.  Returns ``(distinct, order)`` where ``order`` indexes
    ``distinct``.
    """
    rng = random.Random(seed)
    shape = random.Random("explore-round-shape")
    functions = tuple(LINEAR_FUNCTIONS)
    choices = {
        "compare": [list(pair) for pair in itertools.permutations(functions, 2)],
        "sweep": ["balanced"],
    }
    variants: Dict[object, List[Tuple[object, int]]] = {}
    uses: Dict[object, int] = {}
    seen = set()
    distinct: List[Request] = []

    def variant(cell) -> Tuple[object, int]:
        """The next (function or pair, bins) of a cell's fixed cycle."""
        if cell not in variants:
            cycle = list(itertools.product(choices.get(cell[0][0], functions), EXPLORE_BINS))
            shape.shuffle(cycle)
            variants[cell] = cycle
        used = uses.get(cell, 0)
        uses[cell] = used + 1
        return variants[cell][used % len(variants[cell])]

    def attributes(attribute_class: str):
        if attribute_class == "all":
            return None
        if attribute_class == "broad":
            dropped = rng.choice(categorical)
            return sorted(name for name in (*categorical, *ordinal) if name != dropped)
        return sorted(rng.sample(list(categorical), rng.randint(2, len(categorical))))

    def fresh(cell) -> Dict[str, object]:
        (kind, objective), min_size, attribute_class = cell
        function, bins = variant(cell)
        wire: Dict[str, object] = {
            "kind": kind,
            "dataset": EXPLORE_DATASET,
            "attributes": attributes(attribute_class),
            "min_partition_size": min_size,
            "objective": objective,
            "bins": bins,
            "functions" if kind == "compare" else "function": function,
        }
        if kind == "sweep":
            language = round(rng.uniform(*EXPLORE_SWEEP_RANGE), 6)
            wire["weights"] = [{"Language Test": language, "Rating": round(1 - language, 6)}]
        return wire

    def add(wire: Dict[str, object]) -> int:
        request = _request(wire)
        seen.add(request.body)
        distinct.append(request)
        return len(distinct) - 1

    order = [add({
        "kind": "quantify", "dataset": EXPLORE_DATASET, "function": "balanced",
        "attributes": None, "min_partition_size": EXPLORE_OPENING_MIN_SIZE,
        "objective": "most_unfair",
    })]
    fresh_sent = 0
    while fresh_sent < EXPLORE_FRESH:
        cells = [
            (slot, min_size, attribute_class)
            for slot in EXPLORE_BLOCK
            for min_size in EXPLORE_MIN_SIZES
            for attribute_class in EXPLORE_ATTRIBUTE_CLASSES
        ]
        shape.shuffle(cells)
        for cell in cells:
            for _ in range(50):
                wire = fresh(cell)
                if _request(wire).body not in seen:
                    order.append(add(wire))
                    break
            else:
                order.append(rng.randrange(len(distinct)))
            fresh_sent += 1
            if fresh_sent % 3 == 0:
                order.append(rng.randrange(len(distinct)))
    return distinct, order
