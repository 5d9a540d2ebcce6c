import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fszd import (
    BadDivisorError,
    Cyclotomic,
    FszResult,
    IndicatorReport,
    InvariantError,
    NonCommutingPairError,
    Permutation,
    Session,
    adams_cf,
    all_indicators,
    beta,
    centralizer,
    character_table,
    conjugator,
    construct_group,
    double_character,
    from_root,
    fsz_test,
    gamma,
    gmz_count_naive,
    mate,
    mu,
    nu,
    phi,
    rationality,
    reduce_gamma_params,
    restricted_normalizer,
    sqrt_cyclotomic,
    w_class_function,
)
from fszd._nt import divisors
from fszd.indicators import IndicatorEntry, SimpleIndicators

import fszd.chartab
import fszd.indicators
import fszd.permcore
from conftest import (
    ACCEPTANCE_SPECS,
    SL23_SPEC,
    get_group,
    get_session,
    p_part,
    relabeled,
    transported_eta_index,
)


# -- w, phi, beta ---------------------------------------------------------------


def test_w_examples():
    S = get_session("S3")
    w = w_class_function(S, 0, 2)  # z = e, m = 2 on classes (e, transpositions, 3-cycles)
    assert [v.rational_value() for v in w.values] == [1, 1, 0]
    # coprime m: exactly one class carries value 1
    w5 = w_class_function(S, 0, 5)
    assert sum(v.rational_value() for v in w5.values) == 1
    # z a transposition, centralizer C_2: no square roots of z
    trans_class = next(
        i for i, c in enumerate(S.classes.classes) if c.order == 2
    )
    wt = w_class_function(S, trans_class, 2)
    assert all(v.rational_value() == 0 for v in wt.values)


def test_phi_beta_examples():
    S = get_session("S3")
    table = S.centralizer_table(0)
    by_values = {}
    for i, cf in enumerate(table.irreducibles):
        key = tuple(v.rational_value() for v in cf.values)
        by_values[key] = i
    trivial = by_values[(1, 1, 1)]
    sign = by_values[(1, -1, 1)]
    two = next(i for i in range(3) if i not in (trivial, sign))
    # phi identities and spec examples (z = e, m = 2)
    assert phi(S, 0, 2, trivial) == 4
    assert phi(S, 0, 2, sign) == -2
    assert phi(S, 0, 2, two) == 2
    assert beta(S, 0, 2, sign) == Fraction(2, 3)
    assert beta(S, 0, 2, two) == Fraction(1, 3)
    # coprime case: beta = chi(e)/|C|
    for i in range(3):
        deg = table.irreducibles[i].degree().rational_value()
        assert beta(S, 0, 5, i) == deg / 6
    # phi = |C| <chi, w>
    from fszd import inner_product

    w = w_class_function(S, 0, 2)
    for i in range(3):
        assert phi(S, 0, 2, i) == inner_product(table.irreducibles[i], w) * 6


# -- gamma reduction --------------------------------------------------------------


def test_w_coprime_case_hits_unique_root_class():
    # when gcd(m, e(z)) = 1 the only m-th root of z is z^s with sm = 1 mod e(z)
    for spec in ("S3", "C12", "Q8"):
        S = get_session(spec)
        for z_class in range(len(S.classes)):
            ccs = S.centralizer_classes(z_class)
            ez = ccs.exponent
            z = S.classes.classes[z_class].rep
            for m in range(1, ez + 1):
                if math.gcd(m, ez) != 1:
                    continue
                w = w_class_function(S, z_class, m)
                hits = [i for i, v in enumerate(w.values) if v == 1]
                s = pow(m, -1, ez)
                assert hits == [ccs.position_of(z**s)]


def test_beta_inner_product_variants():
    # beta = |<chi, w>|^2 |C| / chi(e), equivalently |phi|^2/(|C| chi(e))
    from fszd import inner_product

    for spec in ("S4", "Q8"):
        S = get_session(spec)
        for z_class in (0, len(S.classes) - 1):
            table = S.centralizer_table(z_class)
            order = S.centralizer_order(z_class)
            for m in (2, 3, 4):
                w = w_class_function(S, z_class, m)
                for chi_index, chi in enumerate(table.irreducibles):
                    ip = inner_product(chi, w)
                    deg = chi.degree().rational_value()
                    assert beta(S, z_class, m, chi_index) == ip.abs_squared() * order / deg
                    assert phi(S, z_class, m, chi_index) == ip * order


def test_reduce_params_delta_and_zero():
    S = get_session("S3")
    assert reduce_gamma_params(S, 0, 5).kind == "delta"  # gcd(5, 6) = 1
    S4 = get_session("C4")
    z_order4 = next(i for i, c in enumerate(S4.classes.classes) if c.order == 4)
    red = reduce_gamma_params(S4, z_order4, 2)  # e(z) = 4, m'o(z) = 8 does not divide 4
    assert red.kind == "zero"
    assert all(v == 0 for v in gamma(S4, z_order4, 2).values)


def test_reduce_params_exact_example():
    # e(z) = 6, m = 10: m' = 2 and a' = 5
    S = get_session("S3xC2")
    assert S.centralizer_classes(0).exponent == 6
    red = reduce_gamma_params(S, 0, 10)
    assert (red.kind, red.m_reduced, red.adams_exp) == ("reduced", 2, 5)
    # the reduction really holds: gamma_10 = psi^5 gamma_2, checked naively too
    g10 = gamma(S, 0, 10)
    assert g10 == adams_cf(gamma(S, 0, 2), 5)
    G = S.group
    ccs = S.centralizer_classes(0)
    for i, cl in enumerate(ccs.classes):
        assert g10.values[i] == gmz_count_naive(G, cl.rep, G.identity, 10)


def test_gamma_periodicity_and_twists():
    S = get_session("S3xC2")
    ez = S.centralizer_classes(0).exponent
    for m in (1, 2, 3):
        unreduced = gamma(S, 0, m + ez, reduce=False)
        assert unreduced == gamma(S, 0, m, reduce=False)
    # psi^a gamma_m = gamma_am for units a
    for m in (2, 3):
        for a in (1, 5):
            assert adams_cf(gamma(S, 0, m), a) == gamma(S, 0, a * m)
    # gamma_{am}^{z^a} = gamma_m^z on an abelian group (every class is master)
    C = get_session("C12")
    for z_class in range(len(C.classes)):
        for m in (2, 3, 4, 6):
            for a in (5, 7, 11):
                za_class = C.classes.power_map(a)[z_class]
                assert gamma(C, za_class, a * m) == gamma(C, z_class, m)


def test_gamma_expands_in_betas():
    # gamma_m^z = sum over chi of beta_m(z, chi) chi, as exact class functions
    for spec in ("S4", "Q8"):
        S = get_session(spec)
        for z_class in (0, len(S.classes) - 1):
            table = S.centralizer_table(z_class)
            for m in (2, 3, 6):
                expanded = None
                for chi_index, chi in enumerate(table.irreducibles):
                    term = chi * beta(S, z_class, m, chi_index)
                    expanded = term if expanded is None else expanded + term
                assert expanded == gamma(S, z_class, m, reduce=False)


@pytest.mark.parametrize(
    "spec", ["C5xC5", "C25", "C3xC3xC2", "Q8xC3", "D4xC3", SL23_SPEC, "A7", "S7"]
)
def test_gamma_in_gf_p_matches_the_exact_beta_sums(spec):
    # the characters backend sums beta * chi in GF(p): every gamma_m^z with
    # m | exp, reduced, and gamma at exp + 2 unreduced, against the sum of
    # beta(...) * chi(c) in Cyclotomic arithmetic, once per root set
    G = construct_group(spec)
    for H in (G, relabeled(G, seed=len(spec))):
        S = Session(H)
        for z_class in range(len(S.classes)):
            irr = S.centralizer_table(z_class).irreducibles
            exact = {}
            for m in (*S.divisors, S.exponent + 2):
                roots = S.root_classes(z_class, m)
                if roots not in exact:
                    betas = [beta(S, z_class, m, i) for i in range(len(irr))]
                    exact[roots] = tuple(
                        sum((b * chi.values[c] for b, chi in zip(betas, irr)), Cyclotomic.rational(0))
                        for c in range(len(irr))
                    )
                got = gamma(S, z_class, m, reduce=S.exponent % m == 0)
                assert got.values == exact[roots], (spec, H.name, z_class, m)


_GAMMA_MUTATIONS = """
from fszd import InvariantError, Session, construct_group
from fszd.chartab import CharacterTable, ClassFunction, character_table


def halve(values, j):
    values[:] = [v / 2 for v in values]


def conjugate_one(values, j):
    values[j] = values[j].galois(-1)


for change in (halve, conjugate_one):
    # C5xC5 is its own centralizer at z = 1; change the first row with an
    # irrational value, at its first one
    session = Session(construct_group("C5xC5"))
    G = session.group
    table = character_table(G)
    rows = list(table.irreducibles)
    r, j = next((r, j) for r, cf in enumerate(rows) for j, v in enumerate(cf.values) if not v.is_real())
    values = list(rows[r].values)
    change(values, j)
    rows[r] = ClassFunction(table.classes, values)
    G._chartab = CharacterTable(G, table.classes, rows)
    try:
        session.gamma_vector(0, 5)
    except InvariantError as exc:
        print(r, exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_corrupted_table_fails_the_gamma_checks(flags):
    # pytest's own asserts vanish under -O, so run the mutations in a child:
    # a halved row has a denominator, and a value swapped for its complex
    # conjugate breaks gamma(1) = |R| at z = 1, m = 5, where R is all of C5xC5
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _GAMMA_MUTATIONS],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out == [
        "1 gamma at z-class 0, m=5: character 1 has denominator 2",
        "1 gamma at z-class 0, m=5: gamma is 13 at class 0, |R| = 25",
    ]


# perfbench's gamma pool rule, recomputed: a reduced (z, m) is kept when the
# cmc backend's work, k * |roots| * (sum of root class sizes), is at most this
CMC_WORK_LIMIT = 150_000


def test_backends_agree_past_order_200():
    # criterion 2 stops at order 200; here both backends meet on every cheap
    # (z, m | exp) of ten groups up to S8
    reduced = 0
    for spec in ("S6", "S7", "S8", "A7", "C2xS5", "C5xC5", "C4xC4", "Q8xC3", "D4xC3", SL23_SPEC):
        S = Session(construct_group(spec))
        for z_class in range(len(S.classes)):
            ccs = S.centralizer_classes(z_class)
            for m in S.divisors:
                red = reduce_gamma_params(S, z_class, m)
                if red.kind == "reduced":
                    roots = S.root_classes(z_class, red.m_reduced)
                    if len(ccs) * len(roots) * sum(ccs.classes[a].size for a in roots) > CMC_WORK_LIMIT:
                        continue
                    reduced += 1
                via_cmc = gamma(S, z_class, m, backend="cmc")
                assert gamma(S, z_class, m) == via_cmc, (spec, z_class, m)
    assert reduced == 365


def test_double_of_c2_matches_classical():
    S = get_session("C2")
    report = all_indicators(S, [2])
    assert len(report.simples) == 4
    for simple in report.simples:
        assert simple.indicators[0].value == 1


def test_gamma_examples_and_backends():
    S = get_session("S3")
    assert [v.rational_value() for v in gamma(S, 0, 1).values] == [1, 0, 0]
    assert [v.rational_value() for v in gamma(S, 0, 2).values] == [4, 2, 3]
    S4 = get_session("S4")
    for z_class in range(len(S4.classes)):
        for m in (2, 3, 4, 6, 12):
            chars = gamma(S4, z_class, m, backend="characters")
            cmc = gamma(S4, z_class, m, backend="cmc")
            assert chars == cmc
    # an unknown backend is rejected before (z, m) is reduced: a table case,
    # the delta case and the zero case
    assert reduce_gamma_params(S, 0, 1).kind == "delta"
    assert reduce_gamma_params(S, 1, 2).kind == "zero"
    for z_class, m in ((0, 2), (0, 1), (1, 2)):
        with pytest.raises(ValueError, match="unknown gamma backend"):
            gamma(S, z_class, m, backend="nope")


def test_gamma_matches_naive_counts():
    for spec in ("S3", "S4", "D6", "Q8"):
        S = get_session(spec)
        G = S.group
        for z_class in range(len(S.classes)):
            z = S.classes.classes[z_class].rep
            ccs = S.centralizer_classes(z_class)
            for m in S.divisors:
                values = gamma(S, z_class, m)
                for i, cl in enumerate(ccs.classes):
                    assert values[i] == gmz_count_naive(G, cl.rep, z, m), (spec, z_class, m, i)


def test_gamma_arbitrary_integers_match_naive():
    # the reduction machinery must cover m = 0, negatives and m > exp
    for spec in ("S3", "C12", "D4"):
        S = get_session(spec)
        G = S.group
        for z_class in range(len(S.classes)):
            z = S.classes.classes[z_class].rep
            ccs = S.centralizer_classes(z_class)
            for m in (-3, -1, 0, 7, 9, 25, 2 * S.exponent, 3 * S.exponent + 2):
                values = gamma(S, z_class, m)
                for i, cl in enumerate(ccs.classes):
                    assert values[i] == gmz_count_naive(G, cl.rep, z, m), (spec, z_class, m, i)


def test_mate_class_independent_of_conjugator():
    S = get_session("S4")
    G = S.group
    for z_class in range(len(S.classes)):
        z = S.classes.classes[z_class].rep
        ccs = S.centralizer_classes(z_class)
        for h_class in range(len(ccs)):
            mt = mate(S, z_class, h_class)
            h = ccs.classes[h_class].rep
            stabilizer = centralizer(G, h)
            mate_classes = set()
            for c in stabilizer.elements()[:4]:
                alt = mt.conjugator * c  # still carries h onto the master rep
                assert alt.conj(h) == S.classes.classes[mt.g_class].rep
                mate_classes.add(
                    S.centralizer_classes(mt.g_class).position_of(alt.conj(z))
                )
            assert mate_classes == {mt.mate_class}


def test_gamma_root_count_identities():
    for spec in ("S4", "C12", "Q8"):
        S = get_session(spec)
        for z_class in range(len(S.classes)):
            z = S.classes.classes[z_class].rep
            ccs = S.centralizer_classes(z_class)
            C = S.centralizer_group(z_class)
            for m in S.divisors:
                values = gamma(S, z_class, m)
                roots = sum(1 for x in C.elements() if x**m == z)
                assert values[0].rational_value() == roots
                total = sum(
                    cl.size * v.rational_value() for cl, v in zip(ccs.classes, values.values)
                )
                assert total == roots * roots


def test_adams_cf_basics():
    S = get_session("S4")
    table = S.centralizer_table(0)
    cf = table.irreducibles[-1]
    assert adams_cf(cf, 1) == cf
    const = adams_cf(cf, S.exponent)
    assert all(v == cf.degree() for v in const.values)


# -- mates ------------------------------------------------------------------------


def test_mate_trivial_cases():
    S = get_session("S4")
    k = len(S.classes)
    for z_class in range(k):
        # h = identity inside C_G(z): conjugator may be trivial, mate is z's G-class
        mt = mate(S, z_class, 0)
        assert mt.g_class == 0
        assert (
            S.centralizer_classes(0).classes[mt.mate_class].rep
            == S.classes.classes[z_class].rep
        )
    # z = e: centralizer is G; mate of any h is the identity class of C_G(g)
    for h_class in range(len(S.centralizer_classes(0))):
        mt = mate(S, 0, h_class)
        assert mt.mate_class == 0
        assert mt.g_class == S.classes.position_of(S.centralizer_classes(0).classes[h_class].rep)


def test_mate_explicit_s3():
    S = get_session("S3")
    three_class = next(i for i, c in enumerate(S.classes.classes) if c.order == 3)
    ccs = S.centralizer_classes(three_class)  # cyclic of order 3
    other = next(
        i
        for i, c in enumerate(ccs.classes)
        if c.order == 3 and c.rep != S.classes.classes[three_class].rep
    )
    mt = mate(S, three_class, other)
    assert mt.g_class == three_class
    t = mt.conjugator
    assert t.conj(ccs.classes[other].rep) == S.classes.classes[three_class].rep
    z = S.classes.classes[three_class].rep
    mate_rep_class = S.centralizer_classes(three_class).position_of(t.conj(z))
    assert mate_rep_class == mt.mate_class


def test_mate_invariants_sweep():
    for spec in ("S4", "D6", SL23_SPEC):
        S = get_session(spec)
        for z_class in range(len(S.classes)):
            z = S.classes.classes[z_class].rep
            ccs = S.centralizer_classes(z_class)
            for h_class in range(len(ccs)):
                mt = mate(S, z_class, h_class)
                g = S.classes.classes[mt.g_class].rep
                t = mt.conjugator
                assert t.conj(ccs.classes[h_class].rep) == g
                zp = t.conj(z)
                assert (zp * g) == (g * zp)
                assert S.centralizer_classes(mt.g_class).position_of(zp) == mt.mate_class


# -- mu and nu ----------------------------------------------------------------------


def test_wrong_conjugator_raises_typed_error(monkeypatch):
    three_cycle = Permutation.from_cycles(3, [(1, 2, 3)])
    monkeypatch.setattr(fszd.indicators, "conjugator", lambda G, a, b: three_cycle)
    session = Session(construct_group("S3"))
    with pytest.raises(InvariantError, match="mate"):
        mu(session, 1, 2)


_WRONG_CONJUGATOR_SCRIPT = """
import fszd.indicators
from fszd import InvariantError, Permutation, Session, construct_group, mu
three_cycle = Permutation.from_cycles(3, [(1, 2, 3)])
fszd.indicators.conjugator = lambda G, a, b: three_cycle
try:
    mu(Session(construct_group("S3")), 1, 2)
except InvariantError as exc:
    print(exc)
"""


def test_wrong_conjugator_raises_under_optimize():
    # pytest's own asserts vanish under -O, so run the scenario in a child
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_CONJUGATOR_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "mate: bad conjugator at z-class 0, h-class 1\n"


def test_centralizer_groups_are_shared(monkeypatch):
    session = Session(construct_group("C4xC4"))
    assert all(session.centralizer_group(z) is session.group for z in range(len(session.classes)))
    built = []
    quick_check = fszd.chartab._quick_check
    monkeypatch.setattr(
        fszd.chartab, "_quick_check", lambda table: (built.append(table.group), quick_check(table))
    )
    for spec in ("Q8xC3", "D4xC3"):
        session = Session(construct_group(spec))
        built.clear()
        groups = [session.centralizer_group(z) for z in range(len(session.classes))]
        distinct = {id(H): H for H in groups}
        assert len(distinct) == 4
        for z in range(len(session.classes)):
            session.centralizer_table(z)
        # orbit factor groups of a product centralizer have tables of their own
        assert sorted(id(H) for H in built if id(H) in distinct) == sorted(distinct)


def test_class_level_path_never_enumerates(monkeypatch):
    def no_enumeration(G):
        raise AssertionError(f"{G!r} enumerated")

    monkeypatch.setattr(fszd.permcore.Group, "elements", no_enumeration)
    for spec in ("S6", "C2xS5"):
        S = Session(construct_group(spec))
        all_indicators(S)
        fsz_test(S, 1)
        fsz_test(S, 5)
        for z_class, cl in enumerate(S.classes):
            for m in (2, 6):
                assert gamma(S, z_class, m, "characters") == gamma(S, z_class, m, "cmc")
            for d in (1, 5):
                restricted_normalizer(S.group, cl.rep, d)


def test_mu_reproduces_classical_fs_indicator():
    for spec in ("S4", "D6", "Q8", "A4"):
        S = get_session(spec)
        G = S.group
        table = S.centralizer_table(0)
        cs = table.classes
        for m in S.divisors:
            pm = cs.power_map(m)
            for eta_index, eta in enumerate(table.irreducibles):
                classical = sum(
                    (eta.values[pm[c]] * cs.classes[c].size for c in range(len(cs))),
                    Cyclotomic.rational(0),
                ) / G.order()
                assert nu(S, 0, eta_index, m) == classical


def test_mu_coefficients_nonnegative_and_m1():
    S = get_session("S4")
    for g_class in range(len(S.classes)):
        el = mu(S, g_class, 1)
        if g_class == 0:
            # gamma_1 = delta forces h = e, so mu_1(e) gathers one z per class
            sizes = {i: Fraction(cl.size) for i, cl in enumerate(S.classes.classes)}
            assert el.coefficients == sizes
        else:
            assert el.coefficients == {}
        for m in S.divisors:
            for coeff in mu(S, g_class, m).coefficients.values():
                assert coeff >= 0 and coeff.denominator == 1


def test_mu_matches_direct_formula():
    # direct evaluation of the indicator sum over (z, h) pairs with mates
    for spec in ("S3", "S4", "Q8"):
        S = get_session(spec)
        for g_class in range(len(S.classes)):
            table = S.centralizer_table(g_class)
            cg = S.centralizer_order(g_class)
            for m in S.divisors:
                for eta_index, eta in enumerate(table.irreducibles):
                    direct = Cyclotomic.rational(0)
                    for z_class in range(len(S.classes)):
                        ccs = S.centralizer_classes(z_class)
                        gvec = gamma(S, z_class, m)
                        for h_class in range(len(ccs)):
                            gv = gvec.values[h_class].rational_value()
                            if gv == 0:
                                continue
                            mt = mate(S, z_class, h_class)
                            if mt.g_class != g_class:
                                continue
                            weight = Fraction(
                                S.centralizer_order(mt.g_class) * ccs.classes[h_class].size,
                                S.centralizer_order(z_class),
                            )
                            direct = direct + eta.values[mt.mate_class] * (weight * gv)
                    assert nu(S, g_class, eta_index, m) == direct / cg


def test_phi_nu_match_cyclotomic_loops():
    # the integer kernel against plain Cyclotomic loops, on tables with
    # irrational characters (conductors 3, 4, 5 and 12)
    for spec in ("Q8xC3", SL23_SPEC, "C5xC5"):
        S = get_session(spec)
        for g_class in range(len(S.classes)):
            table = S.centralizer_table(g_class)
            order = S.centralizer_order(g_class)
            for m in S.divisors:
                roots = S.root_classes(g_class, m)
                coefficients = mu(S, g_class, m).coefficients
                for index, chi in enumerate(table.irreducibles):
                    want_phi = Cyclotomic.rational(0)
                    for a in roots:
                        want_phi = want_phi + chi.values[a] * table.classes.classes[a].size
                    assert phi(S, g_class, m, index) == want_phi
                    want_nu = Cyclotomic.rational(0)
                    for c, coef in coefficients.items():
                        want_nu = want_nu + chi.values[c] * coef
                    assert nu(S, g_class, index, m) == want_nu / order


def test_nu_makes_no_cyclotomic_arithmetic(monkeypatch):
    # nu over all of S5 (a rational table, centralizers with irrational
    # ones) stays on the integer path: with mu built, no Cyclotomic sum or
    # product at all
    S = Session(construct_group("S5"))
    for g_class in range(len(S.classes)):
        for m in S.divisors:
            mu(S, g_class, m)
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        method = getattr(Cyclotomic, name)
        monkeypatch.setattr(
            Cyclotomic, name, lambda a, b, method=method: calls.append(1) or method(a, b)
        )
    for g_class in range(len(S.classes)):
        for eta_index in range(len(S.centralizer_table(g_class).irreducibles)):
            for m in S.divisors:
                nu(S, g_class, eta_index, m)
    assert calls == []


def test_nu_requires_divisor():
    S = get_session("S3")
    with pytest.raises(BadDivisorError):
        nu(S, 0, 0, 4)
    with pytest.raises(BadDivisorError):
        mu(S, 0, 5)


def test_nu_and_mu_reject_a_bad_divisor_before_any_mu():
    S = Session(construct_group("S4"))
    for m in (0, -4, 7):
        for call in (lambda: nu(S, 1, 0, m), lambda: mu(S, 1, m)):
            with pytest.raises(BadDivisorError, match=rf"^m={m} does not divide exp\(G\)=12$"):
                call()
    assert S._mus == {}


def test_nu_values_are_real_and_in_field():
    for spec in ("S4", "D6", SL23_SPEC):
        S = get_session(spec)
        report = all_indicators(S)
        for simple in report.simples:
            for entry in simple.indicators:
                assert entry.value.is_real()
                assert entry.value.in_field(entry.m) or entry.value.is_rational()


def test_nu_galois_equivariance():
    for spec in ("S4", "Q8", "C12", "D6"):
        S = get_session(spec)
        G = S.group
        units = [r for r in range(1, S.exponent) if math.gcd(r, S.exponent) == 1]
        for g_class in range(len(S.classes)):
            g = S.classes.classes[g_class].rep
            table = S.centralizer_table(g_class)
            for r in units:
                gr = g**r
                c2 = S.classes.position_of(gr)
                t = conjugator(G, gr, S.classes.classes[c2].rep)
                for eta_index in range(len(table.irreducibles)):
                    eta2 = transported_eta_index(S, g_class, eta_index, t, c2)
                    for m in S.divisors:
                        assert nu(S, c2, eta2, m) == nu(S, g_class, eta_index, m).galois(r)


def test_beta_galois_equivariance():
    for spec in ("S4", "C12"):
        S = get_session(spec)
        G = S.group
        units = [r for r in range(1, S.exponent) if math.gcd(r, S.exponent) == 1]
        for z_class in range(len(S.classes)):
            z = S.classes.classes[z_class].rep
            table = S.centralizer_table(z_class)
            for r in units:
                zr = z**r
                c2 = S.classes.position_of(zr)
                t = conjugator(G, zr, S.classes.classes[c2].rep)
                for chi_index in range(len(table.irreducibles)):
                    chi2 = transported_eta_index(S, z_class, chi_index, t, c2)
                    for m in S.divisors:
                        assert beta(S, c2, m, chi2) == beta(S, z_class, m, chi_index).galois(r)


def test_beta_small_gcd_is_rational():
    # beta lies in Q(zeta_gcd(o(z), m)) for m dividing e(z)/o(z)
    for spec in ("S4", "S5", "C12", "Q8"):
        S = get_session(spec)
        for z_class in range(len(S.classes)):
            oz = S.classes.classes[z_class].order
            ez = S.centralizer_classes(z_class).exponent
            table = S.centralizer_table(z_class)
            for m in [m for m in S.divisors if (ez // oz) % m == 0]:
                d = math.gcd(oz, m)
                for chi_index in range(len(table.irreducibles)):
                    value = beta(S, z_class, m, chi_index)
                    assert value.in_field(d) or value.is_rational()
                    if d in (1, 2, 3, 4, 6):
                        assert value.is_rational()


def test_p_part_identity():
    for spec in ("C6", "C12", "C2xC4", "C3xQ8"):
        S = get_session(spec)
        G = S.group
        center = [
            x for x in G.elements() if all(t * x == x * t for t in G.generators)
        ]
        for y in center:
            y_class = S.classes.position_of(y)
            table = S.centralizer_table(y_class)
            for p in (2, 3):
                if S.exponent % p:
                    continue
                yp_class = S.classes.position_of(p_part(y, p))
                q = p
                while S.exponent % q == 0:
                    for chi_index in range(len(table.irreducibles)):
                        assert beta(S, y_class, q, chi_index) == beta(S, yp_class, q, chi_index)
                    q *= p


def test_restricted_normalizer_invariance():
    for spec in ("S4", "D6", "Q8", "A4"):
        S = get_session(spec)
        G = S.group
        for g_class in range(len(S.classes)):
            g = S.classes.classes[g_class].rep
            table = S.centralizer_table(g_class)
            for t in restricted_normalizer(G, g, 1).generators:
                for eta_index in range(len(table.irreducibles)):
                    eta2 = transported_eta_index(S, g_class, eta_index, t, g_class)
                    for m in S.divisors:
                        assert nu(S, g_class, eta2, m) == nu(S, g_class, eta_index, m)


# -- double characters -----------------------------------------------------------


def test_double_character_basics():
    S = get_session("S3")
    three_class = next(i for i, c in enumerate(S.classes.classes) if c.order == 3)
    table = S.centralizer_table(three_class)
    g = S.classes.classes[three_class].rep
    for eta_index, eta in enumerate(table.irreducibles):
        xi = double_character(S, three_class, eta_index)
        # at the base pair (g, z) the value is eta(z) for central z
        for cl in S.centralizer_classes(three_class).classes:
            assert xi(g, cl.rep) == eta.values[S.centralizer_classes(three_class).position_of(cl.rep)]
        # x not conjugate to g gives zero
        assert xi(S.group.identity, S.group.identity).is_zero()
    with pytest.raises(NonCommutingPairError):
        xi(
            Permutation.from_cycles(3, [(1, 2)]),
            Permutation.from_cycles(3, [(1, 2, 3)]),
        )


def test_double_character_conjugation_invariance():
    S = get_session("S4")
    g_class = 2
    xi = double_character(S, g_class, 1)
    els = S.group.elements()
    g = S.classes.classes[g_class].rep
    z = next(x for x in els if x * g == g * x and not x.is_identity())
    base = xi(g, z)
    for t in els[::6]:
        assert xi(t.conj(g), t.conj(z)) == base


def test_decomposition_identity_s3():
    S = get_session("S3")
    evaluators = [
        (g_class, eta_index, double_character(S, g_class, eta_index))
        for g_class in range(len(S.classes))
        for eta_index in range(len(S.centralizer_table(g_class).irreducibles))
    ]
    els = S.group.elements()
    pairs = [(x, y) for x in els for y in els if x * y == y * x]
    for m in S.divisors:
        for x, y in pairs:
            total = Cyclotomic.rational(0)
            for g_class, eta_index, xi in evaluators:
                total = total + nu(S, g_class, eta_index, m) * xi(x, y)
            assert total == gmz_count_naive(S.group, x, y, m)


# -- fsz ---------------------------------------------------------------------------


def test_trivial_and_tiny_groups():
    for spec in ("C1", "D1", "A2"):
        S = get_session(spec)
        report = all_indicators(S)
        for simple in report.simples:
            for entry in simple.indicators:
                assert entry.rational
        trivial = S.centralizer_table(0).trivial_index()
        assert report.values_for(0, trivial)[1] == 1


def test_indicator_multiset_constant_on_rational_classes():
    # the set of indicators attached to a class depends only on its rational class
    from fszd import rational_classes

    for spec in ("D5", "C12", "S4"):
        S = get_session(spec)
        report = all_indicators(S)
        by_class = {}
        for simple in report.simples:
            by_class.setdefault(simple.g_class, []).append(
                tuple(e.value.sort_key() for e in simple.indicators)
            )
        for cell in rational_classes(S.group):
            reference = sorted(by_class[cell[0]])
            for c in cell[1:]:
                assert sorted(by_class[c]) == reference, (spec, cell)


# D(H x K) = D(H) (x) D(K): the simples of the product's double are the V (x) W,
# with nu_m(V (x) W) = nu_m(V) nu_m(W) for every m
PRODUCTS = ("S3xS4", "C3xQ8", "S3xC5", "C5xC5", "A5xC3", "S4xS4", "D4xC3")


def _simples(spec):
    """exp(G) and (eta degree, {m: nu_m}) per simple of D(G), over m | exp(G)."""
    report = all_indicators(get_session(spec))
    return report.exponent, [(s.eta_degree, {e.m: e.value for e in s.indicators}) for s in report.simples]


def _nu_at(values, exp, m):
    """nu_m for any m from the values at m | exp: with g = gcd(m, exp) and a
    unit a mod exp with a g = m mod exp, nu_m = nu_(a g) = sigma_a(nu_g), as
    nu has period exp in m and nu_(a m) = sigma_a(nu_m) for a prime to exp
    (Kashina-Sommerhaeuser-Zhu, Mem. AMS 181, 2006)."""
    g = math.gcd(m, exp)
    a = next(a for a in itertools.count(m // g, exp // g) if math.gcd(a, exp) == 1)
    return values[g].galois(a)


def _product_multiset(h, k, ms):
    (h_exp, h_simples), (k_exp, k_simples) = h, k
    return Counter(
        (dv * dw, tuple(_nu_at(v, h_exp, m) * _nu_at(w, k_exp, m) for m in ms))
        for dv, v in h_simples
        for dw, w in k_simples
    )


@pytest.mark.parametrize("spec", PRODUCTS)
def test_product_indicators_are_the_factors_products(spec):
    exp, simples = _simples(spec)
    ms = divisors(exp)
    got = Counter((d, tuple(values[m] for m in ms)) for d, values in simples)
    h, k = map(_simples, spec.split("x"))
    assert len(h[1]) * len(k[1]) == len(simples)
    assert _product_multiset(h, k, ms) == got
    # one factor value changed is caught: the last simple of H at m = exp(H)
    values = dict(h[1][-1][1])
    values[h[0]] += 1
    mutated = (h[0], [*h[1][:-1], (h[1][-1][0], values)])
    assert _product_multiset(mutated, k, ms) != got


def test_gamma_adams_invariant_on_fsz_groups():
    # rationality of all indicators is equivalent to every gamma table being
    # fixed by psi^r for all r coprime to the exponent; our corpus is FSZ
    for spec in ("S4", "D6", "Q8", SL23_SPEC):
        S = get_session(spec)
        units = [r for r in range(1, S.exponent) if math.gcd(r, S.exponent) == 1]
        for z_class in range(len(S.classes)):
            for m in S.divisors:
                table = gamma(S, z_class, m)
                for r in units:
                    assert adams_cf(table, r) == table, (spec, z_class, m, r)


def test_fsz_s3_zero_betas():
    result = fsz_test(get_group("S3"))
    assert result.verdict and result.witness is None and result.betas_checked == 0


def test_fsz_verdicts():
    for spec in ACCEPTANCE_SPECS:
        result = fsz_test(get_session(spec))
        assert result.verdict, spec


def test_fsz_computes_betas_when_needed():
    # C25's trivial row is rational, so its beta is never computed
    result = fsz_test(construct_group("C25"))
    assert result.verdict and result.betas_checked == 24


def test_fsz_false_names_the_first_irrational_beta(sqrt5_beta_at_chi_3):
    result = fsz_test(construct_group("C25"))
    assert (result.verdict, result.witness, result.betas_checked) == (False, (1, 5, 3), 3)
    # sqrt(5) lies in Q(zeta_5), so FSZ_5 still holds
    assert fsz_test(construct_group("C25"), d=5).verdict


def test_fsz_d_parameter():
    assert fsz_test(construct_group("C5xC5"), d=5).verdict
    assert fsz_test(get_group("Q8"), d=2).verdict
    with pytest.raises(BadDivisorError):
        fsz_test(get_group("S3"), d=0)


def test_fsz_rejects_d_before_computing_classes():
    # S12 is beyond the enumeration limit, so any class computation would
    # raise ResourceLimitError before the divisor was looked at
    for spec in ("S8", "S12"):
        G = construct_group(spec)
        for d in (0, -3):
            with pytest.raises(BadDivisorError, match="d must be a positive integer"):
                fsz_test(G, d=d)
        assert G._classes is None


def test_report_takes_rationality_once_per_distinct_value(monkeypatch):
    seen = []
    real = fszd.indicators.rationality
    monkeypatch.setattr(fszd.indicators, "rationality", lambda v: seen.append(v) or real(v))
    report = all_indicators(Session(construct_group("S5")))
    values = [e.value for s in report.simples for e in s.indicators]
    assert len(seen) == len(set(seen)) == len(set(values)) < len(values)
    for s in report.simples:
        for e in s.indicators:
            info = real(e.value)
            assert (e.rational, e.pretty, e.approx) == (info.is_rational, info.pretty, info.approx)


def test_restricted_normalizer_rejects_d_before_computing_classes():
    # as for fsz_test: S12's classes are beyond the enumeration limit
    for spec in ("S8", "S12"):
        G = construct_group(spec)
        g = Permutation.from_cycles(G.degree, [(1, 2, 3)])
        for d in (0, -3):
            with pytest.raises(BadDivisorError, match="d must be a positive integer"):
                restricted_normalizer(G, g, d)
        assert G._classes is None


# fsz-decide cases of the benchmark corpus (group, d)
FSZ_DECIDE_CASES = (
    ("C25", 1),
    ("C5xC5", 5),
    ("S7", 5),
    ("C2xS5", 5),
    ("A7", 7),
    ("S8", 1),
    ("Q8", 2),
    (SL23_SPEC, 3),
)


def _no_field_skips(monkeypatch):
    """Switch off fsz_test's skips by field of values: every centralizer
    gets a table, and every row of it a beta."""
    monkeypatch.setattr(fszd.indicators, "_all_characters_in", lambda C, d: False)
    monkeypatch.setattr(fszd.indicators, "_rows_leaving", lambda table, d: range(len(table.irreducibles)))


def test_fsz_skip_rules_change_no_verdict(monkeypatch):
    # with no gcd value treated as forcing rationality and no skip by field
    # of values, fsz_test checks every beta the skip rules leave out; the
    # verdicts and witnesses must not move
    cases = FSZ_DECIDE_CASES + tuple((spec, 1) for spec in ACCEPTANCE_SPECS)
    sessions = [Session(construct_group(spec)) for spec, _ in cases]
    skipped = [fsz_test(S, d) for S, (_, d) in zip(sessions, cases)]
    monkeypatch.setattr(fszd.indicators, "_SMALL", frozenset())
    _no_field_skips(monkeypatch)
    unskipped = [fsz_test(S, d) for S, (_, d) in zip(sessions, cases)]
    assert [(r.verdict, r.witness) for r in unskipped] == [(r.verdict, r.witness) for r in skipped]
    assert all(u.betas_checked >= s.betas_checked for u, s in zip(unskipped, skipped))
    assert sum(u.betas_checked for u in unskipped) > sum(s.betas_checked for s in skipped)


def test_fsz_field_skips_keep_the_planted_witness(sqrt5_beta_at_chi_3, monkeypatch):
    # the planted beta is irrational at a row that leaves Q, so the skips by
    # field of values must reach it at the same (z, m, chi); the gcd rule is
    # kept, as the plant ignores the reduction lemmas it rests on
    skipped = fsz_test(construct_group("C25"))
    _no_field_skips(monkeypatch)
    unskipped = fsz_test(construct_group("C25"))
    assert (skipped.verdict, skipped.witness) == (unskipped.verdict, unskipped.witness) == (False, (1, 5, 3))
    assert (skipped.betas_checked, unskipped.betas_checked) == (3, 4)


def test_fsz_builds_no_table_for_centralizers_inside_the_field():
    # every character of C5xC5 lies in Q(zeta_5), and Q8's central classes
    # have Q8 itself, whose characters are rational, as centralizer
    S = Session(construct_group("C5xC5"))
    assert fsz_test(S, d=5) == FszResult(True, None, 0, 5)
    assert all(S.centralizer_group(z)._chartab is None for z in range(len(S.classes)))
    S = Session(construct_group("Q8"))
    assert fsz_test(S, d=2).verdict
    central = [z for z, cl in enumerate(S.classes.classes) if cl.size == 1]
    assert len(central) == 2
    assert all(S.centralizer_group(z)._chartab is None for z in central)


def test_fsz_rows_leaving_the_field():
    # A5's two characters of degree 3 take the real values (1 +- sqrt5)/2
    rows_leaving = fszd.indicators._rows_leaving
    table = character_table(get_group("A5"))
    assert [table.degrees[i] for i in rows_leaving(table, 1)] == [3, 3]
    assert rows_leaving(table, 5) == rows_leaving(table, 10) == []
    # C4's two faithful characters take the values +-i
    table = character_table(construct_group("C4"))
    assert len(rows_leaving(table, 2)) == 2 and rows_leaving(table, 4) == []


def test_field_of_values_read_off_the_classes():
    # Brauer's permutation lemma: all characters of C lie in Q(zeta_d)
    # exactly when no class of C fuses with another over Q(zeta_d)
    seen = set()
    specs = dict.fromkeys(ACCEPTANCE_SPECS + tuple(spec for spec, _ in FSZ_DECIDE_CASES))
    for spec in specs:
        S = get_session(spec)
        for C in {id(C): C for C in map(S.centralizer_group, range(len(S.classes)))}.values():
            values = {v for cf in character_table(C).irreducibles for v in cf.values}
            for d in divisors(2 * C.exponent()):
                inside = all(v.in_field(d) for v in values)
                assert fszd.indicators._all_characters_in(C, d) == inside, (spec, C, d)
                seen.add((d % 2, d % 4 == 2, inside))
    # odd d, d = 2 mod 4 and d = 0 mod 4, each on both sides
    assert seen == {(p, q, i) for p, q in ((1, False), (0, True), (0, False)) for i in (True, False)}


def test_fsz_matches_full_rationality():
    for spec in ACCEPTANCE_SPECS:
        S = get_session(spec)
        report = all_indicators(S)
        all_rational = all(e.rational for s in report.simples for e in s.indicators)
        assert fsz_test(S).verdict == all_rational


# -- reports ------------------------------------------------------------------------


def test_report_nu1_and_nu2():
    for spec in ("S4", "D6", "Q8", SL23_SPEC):
        S = get_session(spec)
        report = all_indicators(S)
        trivial_index = S.centralizer_table(0).trivial_index()
        for simple in report.simples:
            values = {e.m: e.value for e in simple.indicators}
            expected_nu1 = 1 if simple.g_class == 0 and simple.eta_index == trivial_index else 0
            assert values[1] == expected_nu1
            assert values[2].rational_value() in (-1, 0, 1)


def test_report_json_and_csv_shape():
    S = get_session("S3")
    report = all_indicators(S)
    data = json.loads(report.to_json())
    assert set(data) == {"group", "order", "exponent", "classes", "simples"}
    assert data["group"] == "S3" and data["order"] == 6 and data["exponent"] == 6
    assert [c["index"] for c in data["classes"]] == [0, 1, 2]
    for simple in data["simples"]:
        assert set(simple) == {"g_class", "eta_index", "eta_degree", "indicators"}
        for entry in simple["indicators"]:
            assert set(entry) == {"m", "value", "rational", "pretty", "approx"}
            assert set(entry["value"]) == {"conductor", "coeffs"}
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + 8 * 4  # header + simples x divisors


def test_report_determinism():
    a = all_indicators(Session(construct_group("S4")))
    b = all_indicators(Session(construct_group("S4")))
    assert a.to_json() == b.to_json()


def reference_json(report):
    return json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2)


def test_report_json_matches_reference_encoder():
    for spec in ACCEPTANCE_SPECS + ("Q8xC3",):
        report = all_indicators(get_session(spec))
        assert report.to_json() == reference_json(report), spec
    empty = all_indicators(get_session("S3"), [])
    assert all(s.indicators == () for s in empty.simples)
    assert empty.to_json() == reference_json(empty)


def irrational_report():
    # no corpus group has an irrational indicator, so the entries are made up:
    # complex approx lists (one with -0.0), non-ASCII pretty strings, Fraction
    # coefficients (one value over two denominators), and a group name json
    # has to escape
    values = [
        from_root(1, 5),
        sqrt_cyclotomic(5),
        (1 + sqrt_cyclotomic(5)) / 2,
        from_root(1, 4),
        from_root(3, 4),
        Cyclotomic.rational(Fraction(-3, 4)),
        sqrt_cyclotomic(5) * Fraction(3, 4),
    ]
    entries = []
    for m, v in enumerate(values, 1):
        info = rationality(v)
        entries.append(IndicatorEntry(m, v, info.is_rational, info.pretty, info.approx))
    assert "√5" in entries[1].pretty and "ζ5" in entries[0].pretty
    assert str(entries[4].approx.real) == "-0.0"
    G = construct_group("S3")
    G.name = 'S3 "tab\there" \\ ζ3'
    simples = [
        SimpleIndicators(0, 0, 1, tuple(entries)),
        SimpleIndicators(1, 2, 3, ()),
        SimpleIndicators(2, 1, 1, tuple(entries[::-1])),
    ]
    return IndicatorReport(Session(G), range(1, len(values) + 1), simples)


def test_report_json_irrational_entries_and_escaped_name():
    report = irrational_report()
    text = report.to_json()
    assert text == reference_json(report)
    assert json.loads(text)["group"] == report.group


def reference_csv(report):
    """The CSV writer with the value cell as json.dumps of the value's dict."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["group", "g_class", "eta_index", "eta_degree", "m", "value", "rational", "pretty", "approx"]
    )
    for s in report.simples:
        for e in s.indicators:
            writer.writerow(
                [
                    report.group,
                    s.g_class,
                    s.eta_index,
                    s.eta_degree,
                    e.m,
                    json.dumps(e.value.to_json_dict()),
                    e.rational,
                    e.pretty,
                    e.approx,
                ]
            )
    return buf.getvalue()


def test_report_csv_matches_reference_writer():
    for spec in ACCEPTANCE_SPECS + ("Q8xC3",):
        report = all_indicators(get_session(spec))
        assert report.to_csv() == reference_csv(report), spec
    report = irrational_report()
    text = report.to_csv()
    assert text == reference_csv(report)
    assert '"{""conductor"": 1, ""coeffs"": [""-3/4""]}"' in text
    assert '"{""conductor"": 5, ""coeffs"": [""-3/4"", ""0"", ""-3/2"", ""-3/2""]}"' in text


# sha256 of to_json() and to_csv() of full reports, as written before the
# templated JSON writer (by json.dumps with indent=2)
PINNED_REPORT_DIGESTS = {
    "S4": (
        "65e87b2c4c51a039841df1c4ebf3754e8ab973e882c3fa780f18d265c91776f7",
        "722825153c3cbbca71ecf26d35a33e58068ec1a30d17b7a4b9c0e8bac4a73569",
    ),
    "Q8xC3": (
        "a00c9510aa3fa9504c7ec46eb4247327e7f17e43698620f3603439a541056434",
        "29a963b2e966da3200ea8fad8ccd742410b585ed079f384ec3f6702995d3c313",
    ),
    SL23_SPEC: (
        "cf458cd6430bc75f55670dadf285edc2eaa0c00250e43484b093366a76132e7c",
        "42e4267a624a17a7e67f79175edb957be0d7b69cf9c80953fc09c135bf85bbef",
    ),
}


@pytest.mark.parametrize("spec", sorted(PINNED_REPORT_DIGESTS))
def test_report_bytes_pinned(spec):
    report = all_indicators(get_session(spec))
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (report.to_json(), report.to_csv())
    )
    assert digests == PINNED_REPORT_DIGESTS[spec]


@pytest.mark.parametrize("spec", ["S4", "C4xC4"])
def test_report_shares_one_entry_per_distinct_m_and_value(spec):
    report = all_indicators(Session(construct_group(spec)))
    entries = [e for s in report.simples for e in s.indicators]
    distinct = {(e.m, e.value) for e in entries}
    assert len({id(e) for e in entries}) == len(distinct) < len(entries)
    assert report.to_json() == reference_json(report)


def test_report_m_validation():
    S = get_session("S3")
    with pytest.raises(BadDivisorError):
        all_indicators(S, [4])
    restricted = all_indicators(S, [2, 3])
    assert restricted.ms == (2, 3)
    assert all(len(s.indicators) == 2 for s in restricted.simples)
