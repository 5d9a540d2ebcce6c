import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fszd import (
    DegreeLimitError,
    Group,
    InvariantError,
    Session,
    all_indicators,
    NotInGroupError,
    BadDivisorError,
    Permutation,
    ResourceLimitError,
    SpecParseError,
    centralizer,
    conjugator,
    construct_group,
    character_table,
    element_power_order,
    fsz_test,
    group_exponent,
    rational_classes,
)
from fszd.chartab import ClassFunction, _class_matrix_row, class_mult_coeff
from fszd import permcore
from fszd._nt import divisors
from fszd.permcore import StabilizerChain, _transversal

from conftest import ACCEPTANCE_SPECS, SL23_SPEC, get_group, relabeled, restricted_normalizer, two_generator_groups

perms5 = st.permutations(range(5)).map(Permutation)


# -- permutation algebra -----------------------------------------------------


@given(perms5, perms5, perms5)
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms5)
def test_inverse_identity(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perms5, perms5, perms5)
def test_conjugation_is_homomorphism(t, x, y):
    assert t.conj(x * y) == t.conj(x) * t.conj(y)
    assert t.conj(x) == t * x * t.inverse()


@given(perms5, perms5, perms5)
def test_conjugation_composition(t, s, x):
    assert (t * s).conj(x) == t.conj(s.conj(x))


@given(perms5, st.integers(-20, 20))
def test_power_matches_repeated_product(p, k):
    expected = Permutation.identity(5)
    base = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        expected = base * expected
    assert p**k == expected


@given(perms5)
def test_order_is_minimal(p):
    o = p.order()
    assert (p**o).is_identity()
    for d in range(1, o):
        if o % d == 0 and d < o:
            assert not (p**d).is_identity() or d == o


def test_element_power_order_examples():
    e = Permutation.identity(4)
    assert element_power_order(e, 17) == (e, 1)
    c = Permutation.from_cycles(3, [(1, 2, 3)])
    sq, order = element_power_order(c, 2)
    assert sq == Permutation.from_cycles(3, [(1, 3, 2)]) and order == 3
    p = Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
    sixth, order = element_power_order(p, 6)
    assert sixth.is_identity() and order == 6


def test_cycle_string_round_trip():
    p = Permutation.from_cycles(6, [(1, 4), (2, 5, 6)])
    assert p.cycle_string() == "(1,4)(2,5,6)"
    assert Permutation.identity(3).cycle_string() == "()"


# -- group construction -------------------------------------------------------


@pytest.mark.parametrize(
    "spec,order",
    [
        ("S3", 6),
        ("S4", 24),
        ("S5", 120),
        ("A4", 12),
        ("A3", 3),
        ("A5", 60),
        ("C12", 12),
        ("D4", 8),
        ("D6", 12),
        ("Q8", 8),
        ("C2xC2", 4),
        ("C2xC4", 8),
        ("perm:(1,2,3,4,5);(1,2)", 120),
        (SL23_SPEC, 24),
        ("S1", 1),
        ("C1", 1),
        ("D1", 2),
        ("D2", 4),
    ],
)
def test_construct_group_orders(spec, order):
    G = construct_group(spec)
    assert G.order() == order
    assert all(g in G for g in G.generators)


def test_order_matches_enumeration():
    for spec in ("S5", "D6", "Q8", "A5", "C2xC4"):
        G = get_group(spec)
        assert len(G.elements()) == G.order()


@pytest.mark.parametrize(
    "bad", ["", "S", "Z5", "perm:(1,2", "perm:(1,2)(2,3)", "perm:(0,1)", "C0", "S3y", "perm:"]
)
def test_construct_group_parse_errors(bad):
    with pytest.raises(SpecParseError):
        construct_group(bad)


def test_degree_limit():
    with pytest.raises(DegreeLimitError):
        construct_group("S65")
    with pytest.raises(DegreeLimitError):
        construct_group("S10", max_degree=9)
    construct_group("S10", max_degree=10)


def test_enum_limit_env(monkeypatch):
    monkeypatch.setenv("FSZD_MAX_ORDER", "50")
    G = construct_group("S5")
    with pytest.raises(ResourceLimitError):
        G.elements()

    def no_orbit(*args):
        raise AssertionError("orbit built above the enumeration limit")

    monkeypatch.setattr(permcore, "_conjugation_orbit", no_orbit)
    with pytest.raises(ResourceLimitError):
        G.conjugacy_classes()
    with pytest.raises(ResourceLimitError):
        Session(construct_group("S5"))


def _cold_and_warm_centralizers_agree(spec, **kwargs):
    cold_G, warm_G = construct_group(spec, **kwargs), construct_group(spec, **kwargs)
    for cl in warm_G.conjugacy_classes():
        cold = centralizer(cold_G, cl.rep)
        assert cold_G._classes is None  # built from cl.rep alone, with no class set
        assert set(cold.elements()) == set(centralizer(warm_G, cl.rep).elements())


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS)
def test_cold_centralizer_matches_warm(spec):
    _cold_and_warm_centralizers_agree(spec)


def test_cold_centralizer_matches_warm_above_256_points():
    _cold_and_warm_centralizers_agree("perm:(296,297);(296,297,298,299,300)", max_degree=300)


def test_cold_centralizer_above_enum_limit(monkeypatch):
    monkeypatch.setenv("FSZD_MAX_ORDER", "50")
    G = construct_group("S5")
    C = centralizer(G, Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]))
    assert C.order() == 5 and G._classes is None
    with pytest.raises(ResourceLimitError):
        G.conjugacy_classes()


# -- membership oracle ---------------------------------------------------------


@given(st.permutations(range(5)))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_membership_matches_enumeration(images):
    p = Permutation(images)
    A5 = get_group("A5")
    assert (p in A5) == (p in set(A5.elements()))


def test_stabilizer_chain_empty():
    chain = StabilizerChain([], 4)
    assert chain.order() == 1
    assert chain.contains(Permutation.identity(4))
    assert not chain.contains(Permutation.from_cycles(4, [(1, 2)]))


def test_stabilizer_chain_extend():
    chain = StabilizerChain([], 5)
    t = Permutation.from_cycles(5, [(1, 2)])
    c = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert chain.extend(t) and chain.order() == 2
    assert not chain.extend(t) and not chain.extend(Permutation.identity(5))
    assert chain.extend(c) and chain.order() == 120
    assert chain.order() == StabilizerChain([c, t], 5).order()


class _ReferenceChain:
    """The incremental Schreier-Sims chain on ``Permutation``s, kept as a test
    reference for the packed one: same base points, strong generators, orbit
    order and transversals, with every product a ``Permutation.__mul__``."""

    def __init__(self, generators, degree):
        self.degree = degree
        # [point, gens, verified, orbit: point -> (u, u^-1)]
        self.levels = []
        for g in generators:
            self.extend(g)

    def extend(self, g):
        residue, j = self.strip(g)
        if residue.is_identity():
            return False
        self._add_at(residue, j)
        self._verify_all(j)
        return True

    def strip(self, g, start=0):
        i = start
        for point, _, _, orbit in self.levels[start:]:
            entry = orbit.get(g.img[point])
            if entry is None:
                return g, i
            g = entry[1] * g
            i += 1
        return g, i

    def _add_at(self, residue, j):
        if j == len(self.levels):
            base = min(p for p in range(self.degree) if residue.img[p] != p)
            ident = Permutation.identity(self.degree)
            self.levels.append([base, [], [], {base: (ident, ident)}])
        for _, gens, verified, orbit in self.levels[: j + 1]:
            gens.append(residue)
            verified.append(0)
            # old points under the new generator, then new points under all
            found = []
            for g, points in (([residue], list(orbit)), (gens, found)):
                for p in points:
                    for gen in g:
                        q = gen.img[p]
                        if q not in orbit:
                            t = gen * orbit[p][0]
                            orbit[q] = (t, t.inverse())
                            found.append(q)

    def _verify_level(self, i):
        _, gens, verified, orbit = self.levels[i]
        points = list(orbit)
        for k, gen in enumerate(gens):
            for x in range(verified[k], len(points)):
                p = points[x]
                s = orbit[gen.img[p]][1] * (gen * orbit[p][0])
                residue, j = self.strip(s, i + 1)
                if not residue.is_identity():
                    verified[k] = x
                    self._add_at(residue, j)
                    return j
            verified[k] = len(points)
        return None

    def _verify_all(self, i):
        while i >= 0:
            j = self._verify_level(i)
            i = i - 1 if j is None else j


def _check_chain_against_reference(G):
    n = G.degree
    chain, ref = G.chain(), _ReferenceChain(G.generators, n)
    assert [level.point for level in chain.levels] == [point for point, *_ in ref.levels]
    for level, (_, ref_gens, _, ref_orbit) in zip(chain.levels, ref.levels):
        # strong generators and transversal inverses are padded tables
        assert [(tuple(g[:n]), tuple(g_inv[:n])) for g, g_inv in level.gens] == [
            (g.img, g.inverse().img) for g in ref_gens
        ]
        assert list(level.orbit) == list(ref_orbit)
        for p, (u, u_inv) in level.orbit.items():
            assert (tuple(u), tuple(u_inv[:n])) == (ref_orbit[p][0].img, ref_orbit[p][1].img)
    assert chain.order() == G.order()
    # members sift to 1; products with a transposition of S_n need not be members
    members = [G.identity, *G.generators]
    members += [a * b for a in members for b in members]
    others = [Permutation.from_cycles(n, [(i, i + 1)]) * x for i in range(1, n) for x in members]
    for x in members + others:
        residue, j = chain.strip(x)
        assert (residue, j) == ref.strip(x)
        assert chain.contains(x) == residue.is_identity() == (x in G)
    assert all(chain.contains(x) for x in members)


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS)
def test_packed_chain_matches_reference(spec):
    _check_chain_against_reference(get_group(spec))


@given(two_generator_groups())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_packed_chain_matches_reference_random(G):
    _check_chain_against_reference(G)


def test_packed_chain_matches_reference_above_256_points():
    G = construct_group("perm:(297,298);(297,298,299,300)", max_degree=300)
    assert isinstance(G.chain().levels[0].orbit[G.chain().levels[0].point][0], tuple)
    _check_chain_against_reference(G)


class _CountingOrbit(dict):
    """An orbit that counts the transversal entries stored into it."""

    stored = 0

    def __setitem__(self, point, entry):
        self.stored += 1
        super().__setitem__(point, entry)


def _check_transversal_entries_built_once(G):
    # every level's orbit starts as its base point's entry and keeps each
    # entry it stores, so it stores |orbit| - 1 of them, each once
    class CountingLevel(permcore._Level):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            self.orbit = _CountingOrbit(self.orbit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permcore, "_Level", CountingLevel)
        chain = StabilizerChain(G.generators, G.degree)
    assert all(type(level.orbit) is _CountingOrbit for level in chain.levels)
    assert sum(level.orbit.stored for level in chain.levels) == sum(len(level.orbit) - 1 for level in chain.levels)
    assert chain.order() == G.order()


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS)
def test_chain_builds_each_transversal_entry_once(spec):
    _check_transversal_entries_built_once(get_group(spec))


@given(two_generator_groups())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_chain_builds_each_transversal_entry_once_random(G):
    _check_transversal_entries_built_once(G)


# sha256 of the centralizer generators over every class, as the
# Permutation-based chain and Schreier generators produced them
CENTRALIZER_DIGESTS = {
    "S7": "07d590ebe050ba043dc25c8c4993209b59f5cee614009657935f292c5cd732d5",
    "C2xS5": "7dbffb3a541697b8f66517a2ad4dd413113751db6fccf6d73002a2cd35d4c3cb",
    SL23_SPEC: "369bbe68a959997adad1912ff7679aabf14725a3643bad86f2efd6c4c639d198",
    "C5xC5": "997d04c86e58c69220f6da2ac8aba5863f8088175e25df0fc4a09b27d96462b3",
    "Q8xC3": "2227d66a796a5ababe9213f36b18534d08855a938024a8045dd161fb79d7c287",
}


@pytest.mark.parametrize("spec", list(CENTRALIZER_DIGESTS))
def test_centralizer_generators_pinned(spec):
    G = construct_group(spec)
    h = hashlib.sha256()
    for cl in G.conjugacy_classes():
        for g in centralizer(G, cl.rep).generators:
            h.update(repr(g.img).encode())
        h.update(b";")
    assert h.hexdigest() == CENTRALIZER_DIGESTS[spec]


def test_chain_and_centralizers_never_multiply_permutations(monkeypatch):
    def no_product(*args):
        raise AssertionError("Permutation product on the packed path")

    monkeypatch.setattr(Permutation, "__mul__", no_product)
    monkeypatch.setattr(Permutation, "conj", no_product)
    for spec in ("S6", "C2xS5"):
        G = construct_group(spec)
        assert G.order() == math.factorial(6) // (1 if spec == "S6" else 3)
        for cl in G.conjugacy_classes():
            assert cl.rep in G
            C = centralizer(G, cl.rep)
            assert C.order() * cl.size == G.order()


def test_subgroup_membership():
    S4 = get_group("S4")
    A4 = get_group("A4")
    for x in A4.elements():
        assert x in S4


# -- conjugacy classes ----------------------------------------------------------


def test_class_equality_ignores_member_order():
    a = construct_group("perm:(1,2);(1,2,3,4)").conjugacy_classes()
    b = construct_group("perm:(1,2,3,4);(1,2)").conjugacy_classes()
    # the same classes, most of them searched in another order
    assert sum(x.members != y.members for x, y in zip(a, b)) == 4
    assert a.classes == b.classes
    assert ClassFunction(a, [1] * 5) + ClassFunction(b, [2] * 5) == ClassFunction(a, [3] * 5)


def test_class_sizes_examples():
    assert sorted(c.size for c in get_group("S3").conjugacy_classes()) == [1, 2, 3]
    assert [c.size for c in construct_group("C4").conjugacy_classes()] == [1, 1, 1, 1]
    assert sorted(c.size for c in get_group("S4").conjugacy_classes()) == [1, 3, 6, 6, 8]


def test_class_invariants():
    for spec in ACCEPTANCE_SPECS:
        G = get_group(spec)
        cs = G.conjugacy_classes()
        assert sum(c.size for c in cs) == G.order()
        for c in cs:
            assert G.order() % c.size == 0
            assert c.rep.order() == c.order
            assert c.rep == min(c.elements)  # deterministic representative
        # identity class is first
        assert cs.classes[0].rep.is_identity()
        # representatives pairwise non-conjugate
        reps = [c.rep for c in cs]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert conjugator(G, reps[i], reps[j]) is None


def test_classes_match_bruteforce_grouping():
    # independent oracle: group all elements by full conjugation sweep
    for spec in ("S4", "D6", "Q8", "A4", SL23_SPEC):
        G = get_group(spec)
        elements = _elements_by_bfs(G)
        expected = set()
        for x in elements:
            expected.add(frozenset(t.conj(x) for t in elements))
        got = {frozenset(c.elements) for c in G.conjugacy_classes()}
        assert got == expected


def test_class_walk_checks_its_cover(monkeypatch):
    G = construct_group("S4")
    monkeypatch.setattr(G, "order", lambda: 48)
    with pytest.raises(InvariantError, match=r"S4.*24 of 48"):
        G.conjugacy_classes()


def test_class_determinism():
    a = construct_group("S4").conjugacy_classes()
    b = construct_group("S4").conjugacy_classes()
    assert [(c.rep.img, c.size, c.order) for c in a] == [
        (c.rep.img, c.size, c.order) for c in b
    ]


def test_centralizer_order_identity():
    for spec in ACCEPTANCE_SPECS:
        G = get_group(spec)
        for c in G.conjugacy_classes():
            assert c.size * centralizer(G, c.rep).order() == G.order()


def test_centralizer_examples():
    S4 = get_group("S4")
    assert centralizer(S4, S4.identity).order() == 24
    C12 = get_group("C12")
    gen = next(c.rep for c in C12.conjugacy_classes() if c.order == 12)
    assert centralizer(C12, gen).order() == 12
    z = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert centralizer(S4, z).order() == 8
    with pytest.raises(NotInGroupError):
        centralizer(get_group("A4"), Permutation.from_cycles(4, [(1, 2)]))


def test_conjugator_contract():
    S3 = get_group("S3")
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(2, 3)])
    t = conjugator(S3, a, b)
    assert t is not None and t.conj(a) == b
    assert conjugator(S3, a, Permutation.from_cycles(3, [(1, 2, 3)])) is None
    assert conjugator(S3, a, a) is not None
    with pytest.raises(NotInGroupError):
        conjugator(
            get_group("A4"),
            Permutation.from_cycles(4, [(1, 2)]),
            Permutation.from_cycles(4, [(1, 3)]),
        )
    # success iff same class, across a whole group
    S4 = get_group("S4")
    elements = S4.elements()
    cs = S4.conjugacy_classes()
    for x in elements[::5]:
        for y in elements[::7]:
            t = conjugator(S4, x, y)
            if cs.position_of(x) == cs.position_of(y):
                assert t is not None and t.conj(x) == y
            else:
                assert t is None


def test_rational_classes():
    assert rational_classes(get_group("S3")) == ((0,), (1,), (2,))
    assert len(rational_classes(get_group("S4"))) == 5
    assert rational_classes(construct_group("C5")) == ((0,), (1, 2, 3, 4))
    # cells are closed under coprime power maps
    for spec in ("S4", "C12", "Q8", SL23_SPEC):
        G = get_group(spec)
        cs = G.conjugacy_classes()
        for cell in rational_classes(G):
            members = set(cell)
            for c in cell:
                o = cs.classes[c].order
                for r in range(1, o):
                    if math.gcd(r, o) == 1:
                        assert cs.power_map(r)[c] in members


def test_rational_classes_over_q_zeta_d():
    C5, C12 = construct_group("C5"), get_group("C12")
    assert rational_classes(C5, 5) == tuple((c,) for c in range(5))
    # Q(zeta_10) = Q(zeta_5), and Q(zeta_2) = Q
    assert rational_classes(C5, 10) == rational_classes(C5, 5)
    for spec in ("S4", "C12", "Q8", SL23_SPEC):
        assert rational_classes(get_group(spec), 2) == rational_classes(get_group(spec), 1)
    # over Q(i) the classes of order 3 and 6 in C12 still fuse, those of order 4 do not
    cs = C12.conjugacy_classes()
    orders = {cell: cs.classes[cell[0]].order for cell in rational_classes(C12, 4)}
    assert sorted(len(cell) for cell, o in orders.items() if o in (3, 6)) == [2, 2]
    assert all(len(cell) == 1 for cell, o in orders.items() if o == 4)
    assert rational_classes(C12, 12) == tuple((c,) for c in range(12))
    # each cell is an orbit of Gal(Q(zeta_N)/Q(zeta_d)), N = lcm(exp(G), d):
    # the units R mod N with R = 1 mod d, acting by c -> class of rep(c)**R
    for spec in ("S4", "C12", "Q8", SL23_SPEC):
        G = get_group(spec)
        cs = G.conjugacy_classes()
        for d in range(1, 2 * cs.exponent + 1):
            N = math.lcm(cs.exponent, d)
            galois = [R for R in range(1, N + 1) if math.gcd(R, N) == 1 and R % d == 1 % d]
            cells = rational_classes(G, d)
            assert sorted(c for cell in cells for c in cell) == list(range(len(cs)))
            for cell in cells:
                assert set(cell) == {cs.power_map(R)[cell[0]] for R in galois}, (spec, d, cell)
    with pytest.raises(BadDivisorError):
        rational_classes(C5, 0)


def test_restricted_normalizer():
    S3 = get_group("S3")
    c3 = Permutation.from_cycles(3, [(1, 2, 3)])
    assert restricted_normalizer(S3, c3, 1).order() == 6
    assert restricted_normalizer(S3, c3, 2).order() == 6
    assert restricted_normalizer(S3, c3, 3).order() == 3  # d = o(g): equals centralizer
    with pytest.raises(BadDivisorError):
        restricted_normalizer(S3, c3, 4)
    with pytest.raises(NotInGroupError):
        restricted_normalizer(get_group("A4"), Permutation.from_cycles(4, [(1, 2)]), 1)
    # sandwich C_G(g) <= N^d <= N^1 and the defining condition per element
    for spec in ("S4", "D6", "Q8"):
        G = get_group(spec)
        exp = group_exponent(G)
        for cl in G.conjugacy_classes():
            g = cl.rep
            o = g.order()
            C = centralizer(G, g)
            N1 = restricted_normalizer(G, g, 1)
            for d in [d for d in (1, 2, 3, 4, 6, 12) if exp % d == 0]:
                Nd = restricted_normalizer(G, g, d)
                assert all(x in Nd for x in C.generators)
                assert all(x in N1 for x in Nd.generators)
                for t in Nd.elements():
                    image = t.conj(g)
                    candidates = [
                        r
                        for r in range(exp)
                        if g**r == image and math.gcd(r, exp) == 1 and r % d == 1 % d
                    ]
                    assert candidates, (spec, g, d, t)


def test_group_exponent():
    assert group_exponent(get_group("S3")) == 6
    assert group_exponent(get_group("C12")) == 12
    assert group_exponent(get_group("S4")) == 12
    assert group_exponent(get_group("A5")) == 30


# -- orbit-based subgroups against their element-filter definitions -------------


def _centralizer_by_filter(G, z):
    return frozenset(t for t in G.elements() if t * z == z * t)


def _restricted_normalizer_by_filter(G, g, d):
    exp = group_exponent(G)
    o = g.order()
    powers = {g**r: r for r in range(o)}
    out = set()
    for t in G.elements():
        r = powers.get(t.conj(g))
        if r is not None and any(
            math.gcd(r + k * o, exp) == 1 and (r + k * o) % d == 1 % d for k in range(exp // o)
        ):
            out.add(t)
    return frozenset(out)


def _check_against_filters(G):
    exp = group_exponent(G)
    for cl in G.conjugacy_classes():
        # the representative, the root of the class's breadth-first search and its last member
        root, last = cl.members[0], cl.members[-1]
        members = list(dict.fromkeys([cl.rep, Permutation(root), Permutation(last)]))
        for g in members:
            assert frozenset(centralizer(G, g).elements()) == _centralizer_by_filter(G, g)
            for d in (d for d in range(1, exp + 1) if exp % d == 0):
                got = frozenset(restricted_normalizer(G, g, d).elements())
                assert got == _restricted_normalizer_by_filter(G, g, d), (g, d)
            for h in members:
                assert conjugator(G, g, h).conj(g) == h


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS)
def test_orbit_subgroups_match_filters(spec):
    _check_against_filters(get_group(spec))


@given(two_generator_groups())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_orbit_subgroups_match_filters_random(G):
    _check_against_filters(G)


# -- packed element loops against Permutation-level references ---------------


def _elements_by_bfs(G):
    """G's elements by a breadth-first search over Permutation products g * x."""
    todo = [G.identity]
    seen = set(todo)
    for x in todo:
        for g in G.generators:
            y = g * x
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _class_matrix_reference(cs, i):
    """M[j][l] = #{x in class i : x^-1 * rep(l) in class j}, one inverse per x."""
    k = len(cs)
    mat = [[0] * k for _ in range(k)]
    for l, cl in enumerate(cs.classes):
        for x in cs.classes[i].elements:
            mat[cs.position_of(x.inverse() * cl.rep)][l] += 1
    return mat


def _class_mult_coeffs_reference(cs):
    """(a, b, c) -> #{(x, y) in class a x class b : x * y = rep(c)}, over all pairs."""
    reps = {cl.rep: c for c, cl in enumerate(cs.classes)}
    counts = {}
    for a, ca in enumerate(cs.classes):
        for b, cb in enumerate(cs.classes):
            for x in ca.elements:
                for y in cb.elements:
                    c = reps.get(x * y)
                    if c is not None:
                        counts[a, b, c] = counts.get((a, b, c), 0) + 1
    return counts


def _check_packed_paths(G):
    elements = G.elements()
    assert len(elements) == G.order()
    assert all(x in G for x in elements)  # each packed element sifts through the chain
    assert set(elements) == _elements_by_bfs(G)
    assert [x.img for x in elements] == sorted(x.img for x in elements)
    cs = G.conjugacy_classes()
    expected = {frozenset(t.conj(x) for t in elements) for x in elements}
    assert {frozenset(c.elements) for c in cs} == expected
    for i, cl in enumerate(cs.classes):
        assert cl.rep == min(cl.elements)
        root = cl.members[0]
        width = len(G.generators) + 1
        assert cs._index[root] % width == 0
        assert {cs._index[y] // width for y in cl.members} == {cs._index[root] // width}
        for y in cl.members:
            t, t_inv = map(Permutation, _transversal(G, cs._index, y))
            assert t.conj(Permutation(root)).img == tuple(y) and (t * t_inv).is_identity()
        for j, row in enumerate(_class_matrix_reference(cs, i)):
            nonzeros = [(l, v) for l, v in enumerate(row) if v]
            assert list(_class_matrix_row(cs, i, j).items()) == nonzeros, (i, j)
        assert len(cs.power_columns[i]) == cl.order
        for t in range(cl.order):
            assert cs.power_map(t)[i] == cs.position_of(cl.rep**t)
    k = len(cs)
    counts = _class_mult_coeffs_reference(cs)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                assert class_mult_coeff(cs, a, b, c) == counts.get((a, b, c), 0), (a, b, c)


@pytest.mark.parametrize("spec", ACCEPTANCE_SPECS)
def test_packed_paths_match_references(spec):
    _check_packed_paths(get_group(spec))


@given(two_generator_groups().filter(lambda G: G.order() <= 120))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_packed_paths_match_references_random(G):
    _check_packed_paths(G)


def _class_data(G):
    cs = G.conjugacy_classes()
    return [(c.size, c.order, centralizer(G, c.rep).order()) for c in cs]


def test_degree_above_256_packs_image_tuples():
    small = construct_group("perm:(1,2);(1,2,3,4)")
    big = construct_group("perm:(297,298);(297,298,299,300)", max_degree=300)
    assert isinstance(small.conjugacy_classes().classes[0].members[0], bytes)
    assert isinstance(big.conjugacy_classes().classes[0].members[0], tuple)
    assert big.order() == small.order() == 24
    assert _class_data(big) == _class_data(small)
    for G in (small, big):
        cs = G.conjugacy_classes()
        elements = G.elements()
        for x in elements[::5]:
            for y in elements[::3]:
                t = conjugator(G, x, y)
                if cs.position_of(x) == cs.position_of(y):
                    assert t in G and t.conj(x) == y
                else:
                    assert t is None
        for degree in (3, 5, 299, 301):
            with pytest.raises(NotInGroupError):
                cs.position_of(Permutation.identity(degree))

    def values(G):
        report = all_indicators(Session(G))
        return sorted((e.m, repr(e.value)) for s in report.simples for e in s.indicators)

    assert values(big) == values(small)


@pytest.mark.parametrize("spec", ["C5xC5", "C4xC4", "C2xC2xC2xC2", "C25", "Q8xC3", "S5"])
def test_walk_orders_and_power_columns_match_the_reps(spec):
    # the walk reads each rep's powers once, for its order and its power
    # column; the first four groups take the early exit for commuting generators
    G = construct_group(spec)
    for H in (G, relabeled(G, seed=len(spec))):
        W = Group(H.degree, H.generators)
        W._classes = permcore._Walk().classes(W, W.order())
        for cs in (H.conjugacy_classes(), W._classes):
            for cl, column in zip(cs.classes, cs.power_columns):
                assert cl.order == cl.rep.order() == len(column)
                assert list(column) == [cs.position_of(cl.rep**t) for t in range(cl.order)]
        assert W._classes.classes == H.conjugacy_classes().classes


@pytest.mark.parametrize("n", range(1, 10))
def test_symmetric_power_columns_match_every_power_type(n):
    G = construct_group(f"S{n}")
    cs = G.conjugacy_classes()
    assert isinstance(cs.construction, permcore._Symmetric)
    types = tuple(cs.construction.at)  # the cycle types in class order
    assert len(types) == len(cs)
    for cl, lam, column in zip(cs.classes, types, cs.power_columns):
        assert len(column) == cl.order == math.lcm(*lam)
        for t in range(cl.order):
            # an L-cycle to the power t is gcd(L, t) cycles of length L / gcd(L, t)
            parts = sorted((L // math.gcd(L, t) for L in lam for _ in range(math.gcd(L, t))), reverse=True)
            assert types[column[t]] == tuple(parts)
            assert column[t] == cs.position_of(cl.rep**t)


# -- symmetric groups by cycle type against the class walk ---------------------


def _relabeled_symmetric(n, seed):
    """S_n on 1..n with its points shuffled: a transposition and an n-cycle."""
    points = random.Random(seed).sample(range(1, n + 1), n)
    gens = [Permutation.from_cycles(n, [points[:2]]), Permutation.from_cycles(n, [points])]
    return Group(n, gens if n > 1 else [], name=f"S{n} on {points}")


SYMMETRIC_BY_TYPE = (
    [construct_group(f"S{n}") for n in range(1, 8)]
    + [_relabeled_symmetric(n, seed=n) for n in range(1, 8)]
    + [
        construct_group("perm:(2,5)(9);(2,5,7)"),  # S3 on {2, 5, 7} of degree 9
        construct_group("perm:(1,2)"),
        construct_group("perm:(1,2);(2,3);(3,4)"),
        Group(3, [], name="trivial"),
    ]
)


def _check_symmetric_against_walk(G):
    cs = G.conjugacy_classes()
    assert isinstance(cs.construction, permcore._Symmetric) and cs._walk is None
    # the reference: the classes of the same group from the class walk
    W = Group(G.degree, G.generators)
    W._classes = ref = permcore._Walk().classes(W, W.order())
    assert [(c.rep, c.size, c.order) for c in cs] == [(c.rep, c.size, c.order) for c in ref]
    assert cs.power_columns == ref.power_columns
    for d in divisors(ref.exponent):
        assert rational_classes(G, d) == rational_classes(W, d)
    for x in W.elements():
        assert cs.position_of(x) == ref.position_of(x)
    outside = [p + 1 for p in range(G.degree) if p not in cs.construction.points]
    if outside and G.degree > 1:
        with pytest.raises(NotInGroupError):
            cs.position_of(Permutation.from_cycles(G.degree, [(outside[0], 2 if outside[0] == 1 else 1)]))
    for cl in cs:
        C = centralizer(G, cl.rep)
        assert frozenset(C.elements()) == _centralizer_by_filter(W, cl.rep)
    assert cs._walk is None  # nothing above ran the walk on G
    for i, cl in enumerate(cs.classes):
        for l in range(len(cs)):
            assert cs.product_classes(i, l) == ref.product_classes(i, l)
        for b in cl.elements:
            for a, c in ((cl.rep, b), (b, cl.rep)):
                t = conjugator(G, a, c)
                assert t in G and t.conj(a) == c
    assert cs.classes == ref.classes
    assert G.elements() == W.elements()


@pytest.mark.parametrize("G", SYMMETRIC_BY_TYPE, ids=repr)
def test_symmetric_classes_match_the_walk(G):
    _check_symmetric_against_walk(G)


def test_symmetric_groups_never_walk_themselves(monkeypatch):
    # a report of S8, a Session of S9 and fsz_test on S10 walk only centralizers
    S8, S9, S10 = (construct_group(f"S{n}") for n in (8, 9, 10))
    real = permcore._walk

    def guarded(H, n):
        if any(H is G for G in (S8, S9, S10)):
            raise AssertionError(f"class walk on {H!r}")
        return real(H, n)

    monkeypatch.setattr(permcore, "_walk", guarded)
    assert len(all_indicators(Session(S8)).simples) == 360
    assert len(Session(S9).classes) == 30
    assert fsz_test(S10).verdict
    assert S10._classes._walk is None


TABLE_ROUTES = ("_symmetric_rows", "_product_rows", "_cyclic_rows", "_dixon_schneider_rows")


def _route_log(monkeypatch):
    """Route name -> the groups whose rows chartab's route built, in order,
    and the (construction, class set) of each ``rows`` call."""
    import fszd.chartab as chartab

    routes = {route: [] for route in TABLE_ROUTES}
    for route in TABLE_ROUTES:
        real = getattr(chartab, route)

        def logged(*args, log=routes[route], real=real):
            log.append(next(a for a in args if isinstance(a, permcore.ConjugacyClassSet)).group)
            return real(*args)

        monkeypatch.setattr(chartab, route, logged)
    calls = []
    for kind in (permcore._Walk, permcore._Symmetric):

        def rows(self, cs, real=kind.rows):
            calls.append((self, cs))
            return real(self, cs)

        monkeypatch.setattr(kind, "rows", rows)
    return routes, calls


def test_construction_is_picked_once_per_group(monkeypatch):
    # S8's report needs a construction for 52 groups (S8, its centralizers and
    # the groups chartab builds from them), for classes and centralizers alike;
    # each group's is picked once, on first use, and kept on the group.  Every
    # table built takes its rows from its own group's construction, once, by
    # the route that construction names
    picked = []
    real = permcore._pick_construction

    def counted(G):
        picked.append(G)
        return real(G)

    monkeypatch.setattr(permcore, "_pick_construction", counted)
    routes, calls = _route_log(monkeypatch)
    # tables by route: symmetric, product, cyclic, Dixon-Schneider
    for spec, n_picked, n_routes in (("S8", 52, (15, 15, 15, 7)), ("C2xS5", 20, (10, 6, 3, 1))):
        for log in (picked, calls, *routes.values()):
            log.clear()
        G = construct_group(spec)
        all_indicators(Session(G))
        assert len(picked) == len({id(H) for H in picked}) == n_picked, spec
        assert all(H.conjugacy_classes().construction is H._construction for H in picked)
        assert {type(H._construction) for H in picked} == {permcore._Symmetric, permcore._Walk}
        tabled = {id(H) for H in picked if H._chartab is not None}
        assert len(calls) == len(tabled) == len({id(cs.group) for _, cs in calls})
        assert {id(cs.group) for _, cs in calls} == tabled
        assert all(c is cs.group._construction and cs is cs.group._classes for c, cs in calls)
        assert tuple(map(len, routes.values())) == n_routes, spec
        for route, groups in routes.items():
            kind = permcore._Symmetric if route == "_symmetric_rows" else permcore._Walk
            assert all(type(H._construction) is kind for H in groups), route
        assert type(G._construction) is (permcore._Symmetric if spec == "S8" else permcore._Walk)


def test_product_detection_runs_only_for_tables_built(monkeypatch):
    # the orbit-product test builds a group per orbit; it runs in the walk's
    # rows, so a gamma query that reduces to delta or zero, and fsz_test on
    # S8 at d = 1, which builds no table, never run it
    from fszd import gamma, reduce_gamma_params

    real = permcore._orbit_factors
    tested = []
    monkeypatch.setattr(permcore, "_orbit_factors", lambda G: tested.append(G) or real(G))
    _, calls = _route_log(monkeypatch)
    for spec in ("S8", "C2xS5"):
        S = Session(construct_group(spec))
        queries = {}
        for z in range(len(S.classes)):
            if real(S.centralizer_group(z)):  # a product, which an eager test would decompose
                for m in S.divisors:
                    queries.setdefault(reduce_gamma_params(S, z, m).kind, (z, m))
        assert {"delta", "zero"} <= set(queries), spec
        for kind in ("delta", "zero"):
            z, m = queries[kind]
            tested.clear()
            cold = Session(construct_group(spec))
            assert gamma(cold, z, m).values[0] == (1 if kind == "delta" else 0)
            assert cold.centralizer_group(z)._chartab is None
            assert tested == [], (spec, kind)
    tested.clear()
    calls.clear()
    assert fsz_test(construct_group("S8"), 1).verdict
    walked = [cs.group for c, cs in calls if isinstance(c, permcore._Walk)]
    assert [id(H) for H in tested] == [id(H) for H in walked]
    assert all(H._chartab is not None for H in tested)
    # where a table is built, the test runs once for its group
    tested.clear()
    character_table(construct_group("S4xS3"))
    assert [H.name for H in tested] == ["S4xS3"]


def test_symmetric_checks_raise_invariant_errors(monkeypatch):
    G = construct_group("S5")
    cs = G.conjugacy_classes()
    cs.classes[3].rep = cs.classes[4].rep  # a rep no orbit of the walk has as its least element
    with pytest.raises(InvariantError, match="cycle types do not give"):
        cs._walked()
    monkeypatch.setattr(permcore, "_centralizer_order", lambda lam: 7)
    with pytest.raises(InvariantError, match=r"order 8, but \|G\| / \|class\| = 7"):
        centralizer(G, Permutation.from_cycles(5, [(1, 2), (3, 4)]))
