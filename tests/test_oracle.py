import pytest
from hypothesis import HealthCheck, given, settings

from fszd import (
    InvariantError,
    Permutation,
    ResourceLimitError,
    Session,
    all_indicators,
    benchmark,
    commuting_pair_table,
    construct_group,
    double_character,
    fsz_test,
    gmz_count_naive,
    nu,
    nu_naive,
    nu_pairs,
    oracle_equivalence_sweep,
)
from fszd.oracle import pow_by_squaring

from conftest import get_group, get_session, two_generator_groups


def test_pow_by_squaring():
    p = Permutation.from_cycles(6, [(1, 2, 3), (4, 5)])
    for m in range(-7, 15):
        assert pow_by_squaring(p, m) == p**m


def test_gmz_examples():
    S3 = get_group("S3")
    e = S3.identity
    assert gmz_count_naive(S3, e, e, 2) == 4
    t = Permutation.from_cycles(3, [(1, 2)])
    assert gmz_count_naive(S3, t, e, 2) == 2
    # non-commuting (g, z) gives the empty set
    c = Permutation.from_cycles(3, [(1, 2, 3)])
    assert gmz_count_naive(S3, t, c, 2) == 0


def test_nu_naive_examples():
    S3 = get_group("S3")
    S = get_session("S3")
    table = S.centralizer_table(0)
    trivial = table.trivial_index()
    for m in (1, 2, 3, 6):
        assert nu_naive(S3, S3.identity, table.irreducibles[trivial], m) == 1
    # g a transposition: both characters of C_2 give 1 at m = 2
    trans_class = next(i for i, c in enumerate(S.classes.classes) if c.order == 2)
    sub = S.centralizer_table(trans_class)
    g = S.classes.classes[trans_class].rep
    for eta in sub.irreducibles:
        assert nu_naive(S3, g, eta, 2) == 1


def test_commuting_pair_table_invariant():
    for spec in ("S3", "S4", "D4"):
        G = get_group(spec)
        table = commuting_pair_table(G)
        n = G.order()
        pair_count = sum(1 for x in G.elements() for y in G.elements() if x * y == y * x)
        assert sum(n // e.stabilizer_order for e in table.entries) == pair_count


def test_nu_pairs_trivial_simple():
    S = get_session("S3")
    G = S.group
    trivial = S.centralizer_table(0).trivial_index()
    xi = double_character(S, 0, trivial)
    pairs = commuting_pair_table(G)
    for m in (1, 2, 3, 6):
        assert nu_pairs(G, xi, m, pairs=pairs) == 1


def test_nu_pairs_matches_nu():
    S = get_session("S4")
    G = S.group
    pairs = commuting_pair_table(G)
    for g_class in (0, 2):
        table = S.centralizer_table(g_class)
        for eta_index in range(len(table.irreducibles)):
            xi = double_character(S, g_class, eta_index)
            for m in (2, 3, 4):
                assert nu_pairs(G, xi, m, pairs=pairs) == nu(S, g_class, eta_index, m)


def test_oracle_sweep_clean():
    report = oracle_equivalence_sweep(get_group("D4"))
    assert report.mismatches == ()
    # 22 simples of D(D4) times the three divisors of exp(D4) = 4
    assert report.values_checked == 66


EXOTIC_SPECS = (
    "D5",                                   # centralizer characters in Q(sqrt5)
    "D7",                                   # real septic subfield values
    "perm:(1,2,3,4,5,6,7);(2,3,5)(4,7,6)",  # C7:C3, complex character values
    "perm:(1,2,3,4,5);(2,3,5,4)",           # F20 = C5:C4
    "A4xC2",
)


def test_oracle_sweep_exotic_groups():
    # groups whose centralizer characters are irrational or complex stress
    # the exact cyclotomic path end to end
    for spec in EXOTIC_SPECS:
        report = oracle_equivalence_sweep(get_group(spec))
        assert report.mismatches == (), (spec, report.mismatches[:2])


@given(two_generator_groups().filter(lambda G: G.order() <= 72))
@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_oracle_sweep_random_groups(G):
    report = oracle_equivalence_sweep(G)
    assert report.values_checked and report.mismatches == (), report.mismatches[:2]
    session = Session(G)
    rational = all(e.rational for s in all_indicators(session).simples for e in s.indicators)
    assert fsz_test(session).verdict == rational


def test_resource_limits():
    G = construct_group("S5")
    with pytest.raises(ResourceLimitError):
        gmz_count_naive(G, G.identity, G.identity, 2, max_order=50)
    with pytest.raises(ResourceLimitError):
        commuting_pair_table(G, max_order=50)


def test_oracle_sweep_checks_the_order_limit_first(monkeypatch):
    # S9 is past the oracle limit: the sweep must refuse it before its
    # classes, which take most of a second, are computed
    monkeypatch.delenv("FSZD_MAX_ORDER", raising=False)
    G = construct_group("S9")
    with pytest.raises(ResourceLimitError, match="oracle limited to order 5040"):
        oracle_equivalence_sweep(G)
    assert G._classes is None


def test_max_order_env(monkeypatch):
    monkeypatch.setenv("FSZD_MAX_ORDER", "10")
    G = construct_group("A4")
    with pytest.raises(ResourceLimitError):
        gmz_count_naive(G, G.identity, G.identity, 2)


def test_commuting_pair_table_checks_orbit_sizes(monkeypatch):
    # a wrong |G| breaks the orbit-stabilizer count; the check must raise
    # even under python -O
    G = construct_group("S3")
    G.elements()  # the class walk checks |G| too; let it run on the true order
    monkeypatch.setattr(G, "order", lambda: 7)
    with pytest.raises(InvariantError, match="commuting pairs"):
        commuting_pair_table(G)


def test_benchmark_smoke():
    result = benchmark(get_group("S3"))
    assert result.naive_seconds > 0 and result.class_seconds > 0
    assert result.simples == 8
    assert result.values == 8 * 4
