"""Element-level reference implementations used as correctness oracles.

These deliberately enumerate group elements and power them by repeated
squaring; they are the slow baseline the class-level formulas are checked
against and benchmarked over.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .chartab import ClassFunction
from .cyclotomic import Cyclotomic, ZERO
from .errors import InvariantError, ResourceLimitError
from .permcore import Group, Permutation, _commutes, env_max_order

DEFAULT_MAX_ORDER = 5040


def _max_order(override: int | None = None) -> int:
    return override if override is not None else env_max_order(DEFAULT_MAX_ORDER)


def _guard(G: Group, max_order: int | None) -> tuple[Permutation, ...]:
    limit = _max_order(max_order)
    n = G.order()
    if n > limit:
        raise ResourceLimitError(f"oracle limited to order {limit}, group has {n}", limit)
    return G.elements()


def pow_by_squaring(x: Permutation, m: int) -> Permutation:
    """x**m using only binary powering on permutation products."""
    if m < 0:
        return pow_by_squaring(x.inverse(), -m)
    out = Permutation.identity(x.degree)
    base = x
    while m:
        if m & 1:
            out = base * out
        m >>= 1
        if m:
            base = base * base
    return out


def gmz_count_naive(
    G: Group, g: Permutation, z: Permutation, m: int, max_order: int | None = None
) -> int:
    """|{x in G : x^m = (gx)^m = z}| by full enumeration."""
    elements = _guard(G, max_order)
    count = 0
    for x in elements:
        if pow_by_squaring(x, m) == z and pow_by_squaring(g * x, m) == z:
            count += 1
    return count


def nu_naive(
    G: Group,
    g: Permutation,
    eta: ClassFunction,
    m: int,
    max_order: int | None = None,
) -> Cyclotomic:
    """(1/|C_G(g)|) sum over x with x^m = (gx)^m of eta(x^m), by enumeration.

    eta must be indexed by the conjugacy classes of C_G(g); the common value
    x^m automatically commutes with g, so evaluation is well defined.
    """
    elements = _guard(G, max_order)
    classes = eta.classes
    counts = [0] * len(classes)
    for x in elements:
        xm = pow_by_squaring(x, m)
        if pow_by_squaring(g * x, m) == xm:
            counts[classes.position_of(xm)] += 1
    total = ZERO
    for c, count in enumerate(counts):
        if count:
            total = total + eta.values[c] * count
    return total / classes.group.order()


@dataclass(frozen=True)
class PairOrbit:
    x: Permutation
    y: Permutation
    stabilizer_order: int


class CommutingPairTable:
    """Orbit representatives of commuting pairs under simultaneous conjugation."""

    def __init__(self, group: Group, entries: Sequence[PairOrbit]):
        self.group = group
        self.entries = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)


def commuting_pair_table(G: Group, max_order: int | None = None) -> CommutingPairTable:
    elements = _guard(G, max_order)
    n = G.order()
    pair_seen: set[tuple[Permutation, Permutation]] = set()
    entries = []
    total_pairs = 0
    for x in elements:
        for y in elements:
            if not _commutes(x, y):
                continue
            total_pairs += 1
            if (x, y) in pair_seen:
                continue
            orbit = {(x, y)}
            queue = [(x, y)]
            while queue:
                a, b = queue.pop()
                for t in G.generators:
                    pair = (t.conj(a), t.conj(b))
                    if pair not in orbit:
                        orbit.add(pair)
                        queue.append(pair)
            pair_seen |= orbit
            stab, rem = divmod(n, len(orbit))
            if rem:
                raise InvariantError(f"commuting pairs: orbit size {len(orbit)} does not divide {n}")
            entries.append(PairOrbit(x, y, stab))
    if sum(n // e.stabilizer_order for e in entries) != total_pairs:
        raise InvariantError(f"commuting pairs: orbit sizes do not add up to {total_pairs} pairs")
    return CommutingPairTable(G, entries)


def nu_pairs(
    G: Group,
    xi: Callable[[Permutation, Permutation], Cyclotomic],
    m: int,
    max_order: int | None = None,
    pairs: CommutingPairTable | None = None,
) -> Cyclotomic:
    """Indicator via the commuting-pair orbit sum, with naive gamma counts."""
    table = pairs if pairs is not None else commuting_pair_table(G, max_order)
    total = ZERO
    for entry in table.entries:
        count = gmz_count_naive(G, entry.x, entry.y, m, max_order)
        if count:
            value = xi(entry.x, entry.y)
            if not value.is_zero():
                total = total + value * Fraction(count, entry.stabilizer_order)
    return total


# ---------------------------------------------------------------------------
# oracle-equivalence sweep and the benchmark harness


@dataclass(frozen=True)
class SweepReport:
    group: str
    values_checked: int
    mismatches: tuple[str, ...]


def oracle_equivalence_sweep(
    G: Group, ms: Sequence[int] | None = None, max_order: int | None = None
) -> SweepReport:
    """Check indicators.nu == nu_naive == nu_pairs on every simple of D(G).

    The pair-orbit gamma counts are shared across simples for a given m;
    each identity asserted is still the full defining formula.
    """
    from .indicators import Session, all_indicators, checked_ms, double_character

    elements = _guard(G, max_order)
    session = Session(G)
    m_list = checked_ms(session, ms)
    report = all_indicators(session, m_list)
    pair_table = commuting_pair_table(G, max_order)
    counts_by_m = {
        m: [gmz_count_naive(G, e.x, e.y, m, max_order) for e in pair_table.entries]
        for m in m_list
    }
    mismatches: list[str] = []
    checked = 0
    for simple in report.simples:
        g_class, eta_index = simple.g_class, simple.eta_index
        g = session.classes.classes[g_class].rep
        table = session.centralizer_table(g_class)
        eta = table.irreducibles[eta_index]
        xi = double_character(session, g_class, eta_index)
        xi_values = [
            xi(e.x, e.y) if _commutes(e.x, e.y) else ZERO for e in pair_table.entries
        ]
        for entry in simple.indicators:
            m = entry.m
            direct = nu_naive(G, g, eta, m, max_order)
            via_pairs = ZERO
            for cnt, xv, orb in zip(counts_by_m[m], xi_values, pair_table.entries):
                if cnt and not xv.is_zero():
                    via_pairs = via_pairs + xv * Fraction(cnt, orb.stabilizer_order)
            checked += 1
            if not (entry.value == direct == via_pairs):
                mismatches.append(
                    f"(g_class={g_class}, eta={eta_index}, m={m}): "
                    f"nu={entry.value!r} naive={direct!r} pairs={via_pairs!r}"
                )
    name = G.name or f"degree-{G.degree} group"
    return SweepReport(name, checked, tuple(mismatches))


@dataclass(frozen=True)
class BenchResult:
    group: str
    simples: int
    values: int
    naive_seconds: float
    class_seconds: float

    @property
    def ratio(self) -> float:
        return self.naive_seconds / self.class_seconds


def benchmark(G: Group, ms: Sequence[int] | None = None) -> BenchResult:
    """Time a full indicator sweep: class-level formulas vs naive enumeration.

    The naive path obeys the oracle's order limit, checked before any other
    work, and receives the element list and the centralizer tables for free
    (they describe its inputs); the class-level path is timed on a fresh
    copy of the group, so it pays for every conjugacy class, subgroup and
    character table it needs.
    """
    from .indicators import Session, all_indicators, checked_ms

    _guard(G, None)
    prep = Session(G)
    m_list = checked_ms(prep, ms)
    triples = []
    for g_class in range(len(prep.classes)):
        table = prep.centralizer_table(g_class)
        g = prep.classes.classes[g_class].rep
        for eta_index in range(len(table.irreducibles)):
            triples.append((g, table.irreducibles[eta_index]))

    start = time.perf_counter()
    for g, eta in triples:
        for m in m_list:
            nu_naive(G, g, eta, m)
    naive_seconds = time.perf_counter() - start

    cold = Group(G.degree, G.generators, name=G.name)
    start = time.perf_counter()
    all_indicators(Session(cold), m_list)
    class_seconds = time.perf_counter() - start

    name = G.name or f"degree-{G.degree} group"
    return BenchResult(name, len(triples), len(triples) * len(m_list), naive_seconds, class_seconds)
