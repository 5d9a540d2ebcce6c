"""Workloads, seeded inputs and output checks for the fszd benchmark.

Every group is kept here as explicit generators in cycle notation, so the
program only ever receives ``perm:`` specs that the benchmark generated.  A
seed relabels the points of the three group-corpus workloads; for
``gamma-queries`` it draws the query list from a fixed pool.

This module imports nothing from ``fszd``: input generation and the output
checks must not depend on the code being measured.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
BACKENDS = ("characters", "cmc")

# Generators exactly as construct_group(<name>) builds them at the commit
# the references were made; make_reference.py checks that they still agree.
GENERATORS = {
    "S6": "(1,2);(1,2,3,4,5,6)",
    "S7": "(1,2);(1,2,3,4,5,6,7)",
    "S8": "(1,2);(1,2,3,4,5,6,7,8)",
    "A7": "(1,2,3);(1,2,3,4,5,6,7)",
    "C2xS5": "(1,2);(3,4);(3,4,5,6,7)",
    "SL(2,3)": "(1,4,7)(2,8,5);(1,6,2,3)(4,7,8,5)",
    "C3xC3xC2": "(1,2,3);(4,5,6);(7,8)",
    "C4xC4": "(1,2,3,4);(5,6,7,8)",
    "Q8xC3": "(1,3,2,4)(5,7,6,8);(1,5,2,6)(3,8,4,7);(9,10,11)",
    "D4xC3": "(1,2,3,4);(2,4);(5,6,7)",
    "C2xC2xC2xC2": "(1,2);(3,4);(5,6);(7,8)",
    "C25": "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25)",
    "C5xC5": "(1,2,3,4,5);(6,7,8,9,10)",
    "Q8": "(1,3,2,4)(5,7,6,8);(1,5,2,6)(3,8,4,7)",
}

SWEEP_NONABELIAN = ("S8", "S7", "A7", "C2xS5", "SL(2,3)")
SWEEP_ABELIAN = ("C3xC3xC2", "C4xC4", "Q8xC3", "D4xC3", "C2xC2xC2xC2")
FSZ_DECIDE = (
    ("C25", 1),
    ("C5xC5", 5),
    ("S7", 5),
    ("C2xS5", 5),
    ("A7", 7),
    ("S8", 1),
    ("Q8", 2),
    ("SL(2,3)", 3),
)
# Queries per pass for each gamma-queries group: (trivial, reduced), where
# trivial queries reduce to delta or zero and reduced ones need a gamma
# table; None asks for one trivial query on every class.  Fixed counts keep
# the mix of costs the same for every seed.  S8 has enough trivial queries
# that the latency tail always falls among its cold set-ups; the small
# groups cover every class so that the median does not move with the seed.
GAMMA_COUNTS = {
    "S8": (5, 1),
    "S7": (3, 2),
    "A7": (3, 2),
    "S6": (None, 2),
    "C2xS5": (None, 2),
    "C5xC5": (None, 1),
    "C4xC4": (None, 2),
    "Q8xC3": (None, 2),
    "D4xC3": (None, 2),
    "SL(2,3)": (None, 2),
}

WORKLOADS = ("sweep-nonabelian", "sweep-abelian", "fsz-decide", "gamma-queries")

_POINT = re.compile(r"\d+")


def degree(name: str) -> int:
    return max(int(p) for p in _POINT.findall(GENERATORS[name]))


def spec(name: str, relabel: list[int] | None = None) -> str:
    """The ``perm:`` spec of a corpus group, its points renamed by ``relabel``.

    Renaming every point p to relabel[p - 1] in cycle notation conjugates
    each generator by that permutation, so the group is the same up to
    isomorphism and only its labeling changes.
    """
    text = GENERATORS[name]
    if relabel is not None:
        text = _POINT.sub(lambda mt: str(relabel[int(mt.group()) - 1]), text)
    return "perm:" + text


def relabeling(name: str, seed: int) -> list[int]:
    points = list(range(1, degree(name) + 1))
    random.Random(f"{seed}/{name}").shuffle(points)
    return points


def relabeled_spec(name: str, seed: int) -> str:
    return spec(name, relabeling(name, seed))


# -- references ----------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_summary(report_json: str) -> tuple[int, str]:
    """Labeling-invariant summary of an indicator report: the number of
    simples and a digest of the sorted multiset of (class size, element
    order, eta degree, indicator values)."""
    data = json.loads(report_json)
    classes = data["classes"]
    rows = []
    for s in data["simples"]:
        cl = classes[s["g_class"]]
        values = [
            [e["m"], e["value"]["conductor"], e["value"]["coeffs"]] for e in s["indicators"]
        ]
        rows.append([cl["size"], cl["order"], s["eta_degree"], values])
    rows.sort()
    text = json.dumps(rows, separators=(",", ":"))
    return len(rows), sha256(text.encode())


# -- gamma-queries ---------------------------------------------------------------


def _evenly_spaced(entries: list, count: int, rng: random.Random) -> list:
    """``count`` entries at equal steps through ``entries`` from a seeded
    offset.  Pool entries are sorted by class, and the class decides most of
    a query's cost, so every seed draws a similar spread of costs."""
    step = len(entries) / count
    offset = rng.random() * step
    return [entries[int(offset + i * step)] for i in range(count)]


def draw_queries(pool: dict, seed: int) -> list[tuple[str, int, int, str]]:
    """A seeded list of (group, z_class, m, backend) gamma queries.

    ``pool`` maps each group to its entries ``[z_class, m, kind, vector]``,
    sorted by class and m.  Each group contributes GAMMA_COUNTS of trivial
    and reduced queries; reduced queries alternate between the two backends
    from a seeded start.
    """
    rng = random.Random(f"{seed}/gamma-queries")
    queries = []
    for name, (n_trivial, n_reduced) in GAMMA_COUNTS.items():
        entries = pool[name]
        trivial = [e for e in entries if e[2] != "reduced"]
        reduced = [e for e in entries if e[2] == "reduced"]
        if n_trivial is None:
            by_class: dict[int, list] = {}
            for e in trivial:
                by_class.setdefault(e[0], []).append(e)
            picked = [rng.choice(group) for group in by_class.values()]
        else:
            picked = _evenly_spaced(trivial, n_trivial, rng)
        for z, m, *_ in picked:
            queries.append((name, z, m, rng.choice(BACKENDS)))
        first = rng.randrange(2)
        for i, (z, m, *_) in enumerate(_evenly_spaced(reduced, n_reduced, rng)):
            queries.append((name, z, m, BACKENDS[(first + i) % 2]))
    rng.shuffle(queries)
    return queries


def workload_inputs(workload: str, seed: int, reference: dict) -> list[tuple]:
    """The operations of one pass, as plain data handed to the program."""
    if workload == "sweep-nonabelian":
        return [("sweep", name, relabeled_spec(name, seed)) for name in SWEEP_NONABELIAN]
    if workload == "sweep-abelian":
        return [("sweep", name, relabeled_spec(name, seed)) for name in SWEEP_ABELIAN]
    if workload == "fsz-decide":
        return [("fsz", name, relabeled_spec(name, seed), d) for name, d in FSZ_DECIDE]
    if workload == "gamma-queries":
        pool = reference["gamma_pool"]
        return [
            ("gamma", name, spec(name), z, m, backend)
            for name, z, m, backend in draw_queries(pool, seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")
