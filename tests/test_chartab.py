import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fszd import (
    ClassFunction,
    Cyclotomic,
    Group,
    MismatchedTablesError,
    NotInGroupError,
    Permutation,
    ResourceLimitError,
    TableComputationError,
    centralizer,
    character_table,
    class_mult_coeff,
    class_position,
    class_sum,
    construct_group,
    from_root,
    inner_product,
    power_map,
    verify_class_algebra,
    verify_column_orthogonality,
)

from fszd.errors import InvariantError
from fszd.chartab import root_pair_counts

from conftest import ACCEPTANCE_SPECS, SL23_SPEC, get_group, is_normal_form, two_generator_groups


def test_degree_multisets():
    expected = {
        "S3": [1, 1, 2],
        "S4": [1, 1, 2, 3, 3],
        "Q8": [1, 1, 1, 1, 2],
        "A5": [1, 3, 3, 4, 5],
        "A4": [1, 1, 1, 3],
        SL23_SPEC: [1, 1, 1, 2, 2, 2, 3],
    }
    for spec, degrees in expected.items():
        table = character_table(get_group(spec))
        assert sorted(table.degrees) == degrees


def test_table_counts_and_degree_sum():
    for spec in ACCEPTANCE_SPECS:
        G = get_group(spec)
        table = character_table(G)
        assert len(table.irreducibles) == len(table.classes)
        assert sum(d * d for d in table.degrees) == G.order()
        assert all(G.order() % d == 0 for d in table.degrees)


def test_cyclic_characters_are_power_characters():
    G = construct_group("C7")
    table = character_table(G)
    gen = next(c.rep for c in table.classes.classes if c.order == 7)
    for cf in table.irreducibles:
        base = cf.value_at(gen)
        for k in range(7):
            assert cf.value_at(gen**k) == base**k


def test_row_orthogonality_exact():
    for spec in ("S3", "S4", "D6", "Q8", "C12"):
        table = character_table(get_group(spec))
        k = len(table.irreducibles)
        for i in range(k):
            for j in range(k):
                assert inner_product(table.irreducibles[i], table.irreducibles[j]) == (
                    1 if i == j else 0
                )


def test_column_orthogonality_and_class_algebra():
    for spec in ACCEPTANCE_SPECS:
        table = character_table(get_group(spec))
        verify_column_orthogonality(table)
        verify_class_algebra(table)


def test_regular_character_decomposition():
    table = character_table(get_group("S4"))
    n = 24
    reg = ClassFunction(
        table.classes, [n if cl.order == 1 else 0 for cl in table.classes.classes]
    )
    for cf in table.irreducibles:
        assert inner_product(reg, cf) == cf.degree()


def test_inner_product_requires_same_classes():
    t3 = character_table(get_group("S3"))
    t4 = character_table(get_group("S4"))
    with pytest.raises(MismatchedTablesError):
        inner_product(t3.irreducibles[0], t4.irreducibles[0])


def test_class_position():
    table = character_table(get_group("S3"))
    assert class_position(table, table.group.identity) == 0
    for i, cl in enumerate(table.classes.classes):
        assert class_position(table, cl.rep) == i
    x = Permutation.from_cycles(3, [(1, 3)])
    assert table.classes.classes[class_position(table, x)].order == 2
    with pytest.raises(NotInGroupError):
        class_position(character_table(get_group("A4")), Permutation.from_cycles(4, [(1, 2)]))


def test_power_map_properties():
    table = character_table(get_group("S4"))
    k = len(table.classes)
    assert power_map(table, 1) == tuple(range(k))
    for c in range(k):
        assert power_map(table, table.classes.classes[c].order)[c] == 0
    pm2, pm3, pm6 = (power_map(table, m) for m in (2, 3, 6))
    assert tuple(pm2[j] for j in pm3) == pm6
    # S3: squaring sends transpositions to identity, fixes 3-cycle class
    t3 = character_table(get_group("S3"))
    pm = power_map(t3, 2)
    for i, cl in enumerate(t3.classes.classes):
        assert pm[i] == (0 if cl.order == 2 else i)


def test_class_mult_coeff_examples():
    # abelian: coefficient 1 iff rep(a)rep(b) lands in class c
    table = character_table(get_group("C12"))
    cs = table.classes
    for a in range(3):
        for b in range(3):
            prod_class = cs.position_of(cs.classes[a].rep * cs.classes[b].rep)
            for c in range(len(cs)):
                assert class_mult_coeff(cs, a, b, c) == (1 if c == prod_class else 0)
    # identity class forces x = e
    s3 = character_table(get_group("S3")).classes
    trans = next(i for i, c in enumerate(s3.classes) if c.order == 2)
    assert class_mult_coeff(s3, 0, trans, trans) == 1
    assert class_mult_coeff(s3, 0, trans, 0) == 0
    assert class_mult_coeff(s3, trans, trans, 0) == 3


def test_class_mult_coeff_builds_each_row_once(monkeypatch):
    import fszd.chartab as chartab

    built = []
    real = chartab._class_matrix_row
    monkeypatch.setattr(chartab, "_class_matrix_row", lambda cs, i, j: built.append((i, j)) or real(cs, i, j))
    cs = construct_group("S4").conjugacy_classes()
    first = [class_mult_coeff(cs, 2, 3, c) for c in range(len(cs))]
    assert [class_mult_coeff(cs, 2, 3, c) for c in range(len(cs))] == first
    assert built == [(2, 3)]
    assert first == [real(cs, 2, 3).get(c, 0) for c in range(len(cs))]


def test_burnside_identity():
    # CMC(a, b^-1, c) = (|a||b|/|G|) sum chi(a) conj(chi(b)) conj(chi(c)) / chi(e);
    # equivalently CMC(a, b, c) carries chi(b) unconjugated.
    for spec in ("S4", "D6", SL23_SPEC):
        G = get_group(spec)
        table = character_table(G)
        cs = table.classes
        inv = cs.inverse_map()
        n = G.order()
        k = len(cs)
        for a in range(k):
            for b in range(k):
                factor = Fraction(cs.classes[a].size * cs.classes[b].size, n)
                for c in range(k):
                    total = sum(
                        (
                            cf.values[a]
                            * cf.values[b].galois(-1)
                            * cf.values[c].galois(-1)
                        )
                        / cf.degree().rational_value()
                        for cf in table.irreducibles
                    )
                    assert total * factor == class_mult_coeff(cs, a, inv[b], c)
                    plain = sum(
                        (cf.values[a] * cf.values[b] * cf.values[c].galois(-1))
                        / cf.degree().rational_value()
                        for cf in table.irreducibles
                    )
                    assert plain * factor == class_mult_coeff(cs, a, b, c)


def test_adams_permutes_irreducibles():
    for spec in ("S4", "Q8", "C12", "A5"):
        table = character_table(get_group(spec))
        e = table.classes.exponent
        for r in range(1, e):
            if math.gcd(r, e) == 1:
                images = {table.index_of(cf.adams(r)) for cf in table.irreducibles}
                assert images == set(range(len(table.irreducibles)))


def test_trivial_group_table():
    # built by the general Dixon-Schneider path, self-check included
    for spec in ("C1", "S1"):
        table = character_table(construct_group(spec))
        assert table.degrees == (1,)
        assert len(table.classes) == 1
        assert table.irreducibles[0].values == (Cyclotomic.rational(1),)
        assert table.trivial_index() == 0
        verify_class_algebra(table)
        verify_column_orthogonality(table)


def test_resource_limit(monkeypatch):
    # FSZD_MAX_ORDER bounds |G| before any class is computed; a table has
    # no order limit of its own
    monkeypatch.setenv("FSZD_MAX_ORDER", "50")
    with pytest.raises(ResourceLimitError):
        character_table(construct_group("S5"))


def test_determinism():
    a = character_table(construct_group("S4"))
    b = character_table(construct_group("S4"))
    assert [[v.to_json_dict() for v in cf.values] for cf in a.irreducibles] == [
        [v.to_json_dict() for v in cf.values] for cf in b.irreducibles
    ]


def test_json_export_shape():
    table = character_table(get_group("S3"))
    data = table.to_json_dict()
    assert data["order"] == 6 and data["exponent"] == 6
    assert [c["size"] for c in data["classes"]] == [1, 3, 2]
    assert set(data["power_maps"]) == {"1", "2", "3", "6"}
    assert len(data["irreducibles"]) == 3
    assert all(len(row) == 3 for row in data["irreducibles"])
    assert all("conductor" in v and "coeffs" in v for row in data["irreducibles"] for v in row)


def test_values_live_in_the_ambient_field():
    # every character value embeds in Q(zeta_exp(G)) of the parent group
    for spec in ("S4", "S5", "Q8", SL23_SPEC):
        G = get_group(spec)
        exp = G.exponent()
        table = character_table(G)
        for cf in table.irreducibles:
            for v in cf.values:
                assert exp % v.conductor == 0


def test_verifiers_detect_corruption():
    import pytest as _pytest

    from fszd import TableComputationError
    from fszd.chartab import CharacterTable

    base = character_table(get_group("S4"))
    rows = list(base.irreducibles)
    # tamper with a single value of one irreducible
    bad_values = list(rows[-1].values)
    bad_values[2] = bad_values[2] + 1
    rows[-1] = ClassFunction(base.classes, bad_values)
    bad = CharacterTable(base.group, base.classes, rows)
    with _pytest.raises(TableComputationError):
        verify_class_algebra(bad)
    with _pytest.raises(TableComputationError):
        verify_column_orthogonality(bad)


def test_adams_on_class_functions():
    table = character_table(get_group("S4"))
    cf = table.irreducibles[-1]
    assert cf.adams(1) == cf
    exp = table.classes.exponent
    constant = cf.adams(exp)
    assert all(v == cf.degree() for v in constant.values)


# ---------------------------------------------------------------------------
# the integer inner product and the exact self-check

IP_SPECS = ("C5xC5", "Q8xC3", SL23_SPEC, "S5")


@st.composite
def mixed_values(draw, length):
    """Fraction-valued cyclotomics mixing conductors 1, 4, 5, 8 and 12."""
    values = []
    for _ in range(length):
        v = Cyclotomic.rational(0)
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.sampled_from((1, 4, 5, 8, 12)))
            q = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
            v = v + from_root(draw(st.integers(0, n - 1)), n) * q
        values.append(v)
    return values


@st.composite
def one_conductor_values(draw, length):
    """Values of one conductor n, each q * zeta_n^j + r with j a unit mod n
    (so of conductor n exactly unless q = 0) or a rational q."""
    n = draw(st.sampled_from((4, 5, 8, 12)))
    units = [j for j in range(1, n) if math.gcd(j, n) == 1]
    values = []
    for _ in range(length):
        q = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 6)))
        if draw(st.booleans()):
            values.append(Cyclotomic.rational(q))
        else:
            values.append(from_root(draw(st.sampled_from(units)), n) * q + draw(st.integers(-3, 3)))
    return values


def _reference_inner_product(f, g):
    total = Cyclotomic.rational(0)
    for cl, fv, gv in zip(f.classes.classes, f.values, g.values):
        total = total + fv * gv.galois(-1) * cl.size
    return total / f.classes.group.order()


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_inner_product_matches_cyclotomic_reference(data):
    table = character_table(get_group(data.draw(st.sampled_from(IP_SPECS))))
    k = len(table.classes)
    f = ClassFunction(table.classes, data.draw(mixed_values(k)))
    if data.draw(st.booleans()):
        g = table.irreducibles[data.draw(st.integers(0, k - 1))]
    else:
        g = ClassFunction(table.classes, data.draw(mixed_values(k)))
    for a, b in ((f, g), (g, f), (f, f)):
        got = inner_product(a, b)
        want = _reference_inner_product(a, b)
        assert got == want
        assert _is_canonical(got)


def _is_canonical(v):
    return is_normal_form(v) and (v.conductor, v.coeffs) == Cyclotomic(v.conductor, v.coeffs).sort_key()


def _reference_class_sum(f, weights, den):
    total = Cyclotomic.rational(0)
    for c, w in weights.items():
        total = total + f.values[c] * w
    return total / den


def _reference_betas(table, roots):
    """beta_chi = |phi_chi|^2 / (|C| chi(1)), phi_chi = sum of |a| chi(a)
    over the classes a in roots, in plain Cyclotomic arithmetic."""
    n = table.group.order()
    betas = []
    for chi in table.irreducibles:
        phi = Cyclotomic.rational(0)
        for a in roots:
            phi = phi + chi.values[a] * table.classes.classes[a].size
        betas.append(phi * phi.galois(-1) / (n * chi.degree()))
    return betas


def _reference_root_pairs(table, roots):
    """For R the union of the classes in roots, the number of x in R with
    rep(c) * x in R for each class c, by enumeration."""
    cs, where = table.classes, set(roots)
    members = [x for x in table.group.elements() if cs.position_of(x) in where]
    return [sum(cs.position_of(cl.rep * x) in where for x in members) for cl in cs.classes]


def _reference_character_sums(coeffs, table):
    out = []
    for c in range(len(table.classes)):
        total = Cyclotomic.rational(0)
        for b, chi in zip(coeffs, table.irreducibles):
            total = total + b * chi.values[c]
        out.append(total)
    return out


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_kernel_sums_match_cyclotomic_reference(data):
    """class_sum and the gamma combination step (beta-like coefficients,
    here irrational, fractional or zero, against the table rows).  class_sum
    also meets rows of one conductor mixed with rationals, and weights whose
    sum cancels to 0."""
    table = character_table(get_group(data.draw(st.sampled_from(IP_SPECS))))
    k = len(table.classes)
    kind = data.draw(st.sampled_from(("row", "mixed", "one conductor")))
    if kind == "row":
        f = table.irreducibles[data.draw(st.integers(0, k - 1))]
    elif kind == "mixed":
        f = ClassFunction(table.classes, data.draw(mixed_values(k)))
    else:
        f = ClassFunction(table.classes, data.draw(one_conductor_values(k)))
    weights = data.draw(st.dictionaries(st.integers(0, k - 1), st.integers(-6, 6)))
    weights[data.draw(st.integers(0, k - 1))] = 0
    den = data.draw(st.integers(1, 12))
    got = class_sum(f, weights, den)
    assert got == _reference_class_sum(f, weights, den)
    assert _is_canonical(got)
    # a value against its negative, and the n-th roots of unity but 1 with
    # the rational 1 at another class, each sum to 0
    values = list(f.values)
    c = data.draw(st.integers(0, k - 2))
    values[c + 1] = -values[c]
    w = data.draw(st.integers(1, 6))
    cancelling = [({c: w, c + 1: w}, values)]
    n = data.draw(st.sampled_from((3, 4, 5, 8, 12)))
    if n <= k:
        roots = [from_root(j, n) for j in range(1, n)] + [Cyclotomic.rational(1)] + values[n:]
        cancelling.append(({j: w for j in range(n)}, roots))
    for weights, values in cancelling:
        got = class_sum(ClassFunction(table.classes, values), weights, den)
        assert (got.conductor, got.den, got.nums) == (1, 1, (0,))
    # the gamma combination step, over any union R of classes: the GF(p)
    # sums count the x in R with gx in R, and are the exact beta sums
    roots = sorted(data.draw(st.sets(st.integers(0, k - 1))))
    got = root_pair_counts(table, roots, "test")
    want = _reference_character_sums(_reference_betas(table, roots), table)
    assert [Cyclotomic.rational(v) for v in got] == want
    assert list(got) == _reference_root_pairs(table, roots)


def test_character_sums_reject_a_row_with_a_denominator():
    def halve(values):
        values[:] = [v / 2 for v in values]

    table = _corrupted("S4", 1, halve)
    with pytest.raises(InvariantError, match=r"test: character 1 has denominator 2"):
        root_pair_counts(table, [0], "test")


def test_gamma_checks_name_a_count_above_r_and_a_wrong_total():
    # R = 1 and the involutions of S4, |R| = 10.  Moving row i's value at the
    # 3-cycles, outside R, by delta moves gamma there by iota(beta_i) * delta
    # mod p and leaves every beta alone; delta is picked to land on
    # gamma + 1 (in range, so only the total is wrong) and on |R| + 1
    from fszd.chartab import _prime_and_root

    table = character_table(get_group("S4"))
    classes = table.classes.classes
    roots = [a for a, cl in enumerate(classes) if cl.order <= 2]
    c = next(c for c, cl in enumerate(classes) if cl.order == 3)
    r = sum(classes[a].size for a in roots)
    gamma = root_pair_counts(table, roots, "test")
    assert r == 10 and gamma[c] < r
    p, _ = _prime_and_root(table.conductor, 24)
    i, b = next((i, b) for i, b in enumerate(_reference_betas(table, roots)) if b != 0)
    b = b.rational_value()
    unit = b.numerator * pow(b.denominator, -1, p) % p
    for target, message in (
        (gamma[c] + 1, "sum of |c| gamma(c) is not |R|^2 = 100"),
        (r + 1, f"gamma is {r + 1} at class {c}, |R| = {r}"),
    ):
        delta = (target - gamma[c]) * pow(unit, -1, p) % p
        bad = _corrupted("S4", i, lambda values: values.__setitem__(c, values[c] + delta))
        with pytest.raises(InvariantError) as caught:
            root_pair_counts(bad, roots, "test")
        assert str(caught.value) == f"test: {message}"


def test_integer_arithmetic_builds_no_fraction(monkeypatch):
    table = character_table(get_group("C5xC5"))
    k = len(table.classes)
    a = from_root(1, 5) * Fraction(2, 3) - from_root(3, 8) * Fraction(5, 4)
    b = from_root(1, 12) * Fraction(-1, 6) + from_root(2, 5)
    f = ClassFunction(table.classes, [a, b, Fraction(1, 4)] + [from_root(j, 5) / 3 for j in range(k - 3)])
    g = table.irreducibles[7]
    new = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [a + b, a - b, a * b, b * a, a + 2, a * 3, a / 6, a.galois(7), b.galois(-1)]
    results += [inner_product(f, g), inner_product(g, f), inner_product(f, f)]
    results += [class_sum(f, {0: 2, 3: -1, 5: 4}, 7), class_sum(g, {c: c for c in range(k)})]
    monkeypatch.undo()
    assert built == []
    assert all(_is_canonical(v) for v in results)
    assert not results[-5].is_rational() and results[-3].den > 1


def test_independent_verifiers_avoid_the_integer_path(monkeypatch):
    import fszd.chartab as chartab

    def forbidden(*args):
        raise AssertionError("integer inner-product path used")

    table = character_table(get_group("Q8xC3"))
    monkeypatch.setattr(chartab, "inner_product", forbidden)
    monkeypatch.setattr(chartab, "_dot", forbidden)
    monkeypatch.setattr(chartab, "_integer_forms", forbidden)
    monkeypatch.setattr(chartab.ClassFunction, "_integer_form", forbidden)
    verify_column_orthogonality(table)
    verify_class_algebra(table)


def _corrupted(spec, row_index, change):
    from fszd.chartab import CharacterTable

    base = character_table(get_group(spec))
    rows = list(base.irreducibles)
    values = list(rows[row_index].values)
    change(values)
    rows[row_index] = ClassFunction(base.classes, values)
    return CharacterTable(base.group, base.classes, rows)


def test_self_check_rejects_a_conjugated_value():
    from fszd.chartab import _quick_check

    table = character_table(get_group("C5xC5"))
    r, j = next(
        (r, j)
        for r, cf in enumerate(table.irreducibles)
        for j, v in enumerate(cf.values)
        if not v.is_real()
    )

    def conjugate_one(values):
        values[j] = values[j].galois(-1)

    with pytest.raises(TableComputationError, match="row orthogonality"):
        _quick_check(_corrupted("C5xC5", r, conjugate_one))


def test_self_check_rejects_swapped_values():
    from fszd.chartab import _quick_check

    table = character_table(get_group("Q8xC3"))
    r = len(table.irreducibles) - 1
    values = table.irreducibles[r].values
    i, j = next((i, j) for i in range(len(values)) for j in range(i) if values[i] != values[j])

    def swap(values):
        values[i], values[j] = values[j], values[i]

    with pytest.raises(TableComputationError, match="row orthogonality"):
        _quick_check(_corrupted("Q8xC3", r, swap))


def test_self_check_rejects_a_scaled_row():
    from fszd.chartab import _quick_check

    def double(values):
        values[:] = [v * 2 for v in values]

    with pytest.raises(TableComputationError):
        _quick_check(_corrupted("Q8xC3", 1, double))


def test_self_check_takes_every_pair(monkeypatch):
    import fszd.chartab as chartab

    # C2xS5 is the product of its orbit groups, whose tables are checked as
    # well; count the pairs on G's own class set.  Its rows are rational, so
    # each pair is one inner product
    calls = []
    inner = chartab.inner_product
    monkeypatch.setattr(chartab, "inner_product", lambda f, g: calls.append(f.classes) or inner(f, g))
    G = construct_group("C2xS5")
    cs = G.conjugacy_classes()
    k = len(cs)
    character_table(G)
    assert sum(classes is cs for classes in calls) == k * (k + 1) // 2


def test_certificate_takes_every_pair(monkeypatch):
    import fszd.chartab as chartab

    # Q8xC3 has irrational rows: its check is the certificate's Gram matrix
    # mod p, whose upper triangle covers every pair, without inner products
    G = construct_group("Q8xC3")
    table = character_table(G)
    k = len(table.classes)
    assert not all(chi._integer_form()[2] for chi in table.irreducibles)

    def forbidden(*args, **kwargs):
        raise AssertionError("exact inner product used on an irrational table")

    entries = []
    gram_rows = chartab._gram_rows

    def counting(vals, sizes, p):
        for row in gram_rows(vals, sizes, p):
            entries.append(len(row))
            yield row

    monkeypatch.setattr(chartab, "inner_product", forbidden)
    monkeypatch.setattr(chartab, "_dot", forbidden)
    monkeypatch.setattr(chartab, "_gram_rows", counting)
    chartab._quick_check(table)
    assert entries == list(range(k, 0, -1))
    assert sum(entries) == k * (k + 1) // 2


# -- the row certificate ---------------------------------------------------------


def test_is_prime_matches_factorize():
    from fszd._nt import factorize, is_prime

    for n in range(1, 10**5 + 1):
        f = factorize(n)
        assert is_prime(n) == (len(f) == 1 and f[0][1] == 1), n
    # strong pseudoprimes to the bases 2..7 and 2..23: the remaining bases
    # must catch them
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)
        assert len(factorize(n)) > 1
    assert is_prime(2**61 - 1) and is_prime(10**9 + 7)
    assert not is_prime((2**31 - 1) * (10**9 + 7))
    # above the proven range is_prime factorizes
    assert not is_prime(43**16) and 43**16 > 3.3e24


def test_unit_generators_generate_the_unit_group():
    from fszd.chartab import _unit_generators

    for e in range(1, 400):
        units = {r for r in range(e) if math.gcd(r, e) == 1} if e > 1 else {0}
        gens = _unit_generators(e)
        assert set(gens) <= units and 1 not in gens
        reached = {1 % e}
        frontier = reached
        while frontier:
            frontier = {x * g % e for x in frontier for g in gens} - reached
            reached |= frontier
        assert reached == units, e


def test_prime_and_root_is_the_least_prime_above_the_bound():
    from fszd._nt import is_prime, prime_factors
    from fszd.chartab import _prime_and_root

    for e in (1, 2, 3, 4, 5, 12, 25, 60, 125, 840):
        for bound in (1, e, 97, 2125, 10**6):
            p, w = _prime_and_root(e, bound)
            assert p > bound and p % e == 1 % e and is_prime(p)
            assert not any(is_prime(q) for q in range(bound + 1, p) if q % e == 1 % e)
            assert pow(w, e, p) == 1
            assert all(pow(w, e // q, p) != 1 for q in prime_factors(e))


def test_prime_and_root_must_exceed_the_certificate_bound(monkeypatch):
    import fszd.chartab as chartab

    # 13 = 1 mod exp(Q8xC3) = 12.  The trivial row is fixed by every sigma_r,
    # so moving one of its values by 13 keeps the table closed, and the
    # table is congruent to the true one mod 13: a Gram check mod 13 accepts
    # it.  The bound then exceeds 13, and the prime above it rejects it
    q = 13

    def move(values):
        values[1] = values[1] + q

    bad = _corrupted("Q8xC3", character_table(get_group("Q8xC3")).trivial_index(), move)
    real = chartab._prime_and_root
    bounds = []

    def below_the_bound(e, bound):
        bounds.append(bound)
        return real(e, q - 1)

    with monkeypatch.context() as m:
        m.setattr(chartab, "_prime_and_root", below_the_bound)
        chartab._quick_check(bad)
    assert real(12, q - 1)[0] == q < bounds[0]
    with pytest.raises(TableComputationError, match=r"failed for Group\[Q8xC3\]: Gram entry"):
        chartab._quick_check(bad)


_CERTIFICATE_MUTATIONS = """
from fractions import Fraction

from fszd import ClassFunction, TableComputationError, character_table, construct_group, from_root
from fszd.chartab import CharacterTable, _quick_check


def corrupted(spec, r, change):
    table = character_table(construct_group(spec))
    rows = list(table.irreducibles)
    values = list(rows[r].values)
    change(values, [row.values for row in rows])
    rows[r] = ClassFunction(table.classes, values)
    return CharacterTable(table.group, table.classes, rows)


def set_value(c, value):
    def change(values, rows):
        values[c] = value(values[c], rows)

    return change


Q8xC3 = character_table(construct_group("Q8xC3"))
for table in (
    corrupted("C5xC5", 3, set_value(2, lambda v, rows: v * Fraction(1, 2))),
    corrupted("C5", 1, set_value(1, lambda v, rows: from_root(1, 4))),
    corrupted("C5", 1, set_value(1, lambda v, rows: rows[1][2])),
    corrupted("C5", 2, lambda values, rows: values.__setitem__(slice(None), rows[1])),
    corrupted("Q8xC3", Q8xC3.trivial_index(), set_value(1, lambda v, rows: v + 13)),
):
    try:
        _quick_check(table)
    except TableComputationError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_certificate_failures_raise_typed_errors(flags):
    # pytest's own asserts vanish under -O, so run the mutations in a child:
    # a denominator, a value outside Q(zeta_e), a row whose Galois images
    # are not rows (a second z^2 in C5's row (1, z, z^2, z^3, z^4)), two
    # equal rows, and a value moved by 13 = 1 mod 12, which only the Gram
    # matrix mod a prime above the bound catches
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _CERTIFICATE_MUTATIONS],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert len(out) == 5
    assert all(line.startswith("row orthogonality check failed for Group[") for line in out)
    assert out[0].endswith("C5xC5]: character 3 has a value with denominator 2")
    assert out[1].endswith("C5]: value Cyclotomic[ζ4] is not in Q(zeta_5)")
    assert "C5]: sigma_" in out[2] and out[2].endswith("is not a row")
    assert out[3].endswith("C5]: two rows are equal")
    assert "Q8xC3]: Gram entry " in out[4]


@pytest.mark.parametrize("spec", ["A5", "A7", SL23_SPEC], ids=["A5", "A7", "SL23"])
def test_dixon_schneider_rows_do_not_depend_on_the_root(monkeypatch, spec):
    # w^u for a unit u mod e has order e too, and gives the Galois conjugate
    # sigma_u(chi) of every row; Irr(G) is Galois-stable, so the sorted rows
    # are the same for every u
    import fszd.chartab as chartab
    from fszd.chartab import _dixon_schneider_rows, _row_key

    G = construct_group(spec)
    cs = G.conjugacy_classes()
    e = cs.exponent

    def rows():
        return [chi.values for chi in sorted(_dixon_schneider_rows(G, cs), key=_row_key)]

    want = rows()
    real = chartab._prime_and_root
    for u in (u for u in range(1, e) if math.gcd(u, e) == 1):

        def root_power(e, bound, u=u):
            p, w = real(e, bound)
            return p, pow(w, u, p)

        monkeypatch.setattr(chartab, "_prime_and_root", root_power)
        assert rows() == want, u


_DEGREE_FAILURES = """
import fszd.chartab as chartab
from fszd import TableComputationError, construct_group

real_split = chartab._split_eigenspaces
# the class of -1 in Q8: size 1, order 2, its own inverse
minus_one = next(
    c for c, cl in enumerate(construct_group("Q8").conjugacy_classes().classes)
    if cl.size == 1 and cl.order == 2
)


def zero_norm_sum(spaces, mat_rows, p):
    # once every space is a line, eigenspace 0 gets omega = (1, a, 0, ...)
    # with a at -1 and a^2 = -1 mod p, so its norm sum s = 1 + a^2 is 0
    spaces = real_split(spaces, mat_rows, p)
    if all(len(rows) == 1 for rows, _ in spaces):
        vec = [0] * len(spaces)
        vec[0] = 1
        vec[minus_one] = next(a for a in range(p) if (a * a + 1) % p == 0)
        spaces[0] = ([vec], [0])
    return spaces


for name, patch in (("divisors", lambda n: ()), ("_split_eigenspaces", zero_norm_sum)):
    real = getattr(chartab, name)
    setattr(chartab, name, patch)
    try:
        chartab.character_table(construct_group("Q8"))
    except TableComputationError as exc:
        print(exc)
    setattr(chartab, name, real)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_degree_recovery_failures_raise_typed_errors(flags):
    # a degree is the one divisor d of |G| with d^2 <= |G| and d^2 = |G|/s
    # mod p: a scan that meets no divisor, and a norm sum s = 0, which makes
    # the target 0 that no divisor below p squares to, both raise the
    # typed error, also under -O
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _DEGREE_FAILURES],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert len(out) == 2
    assert all(line.startswith("degree recovery failed (Group[Q8], eigenspace 0)") for line in out)
    assert out[1].endswith("no divisor of 8 squares to 0 mod 13")


def _berkowitz_charpoly_mod(a, p):
    """det(xI - A) mod p by the division-free Berkowitz algorithm, in
    descending degree order: the O(n^4) reference for ``_charpoly_mod``."""
    n = len(a)
    if n == 0:
        return [1]
    poly = [1, (-a[0][0]) % p]
    for i in range(1, n):
        row = a[i][:i]
        col = [a[r][i] for r in range(i)]
        sub = [r[:i] for r in a[:i]]
        t = [1, (-a[i][i]) % p]
        v = col
        for k in range(2, i + 2):
            if k > 2:
                v = [sum(sub[r][c] * v[c] for c in range(i)) % p for r in range(i)]
            t.append((-sum(row[c] * v[c] for c in range(i))) % p)
        new = []
        for r in range(i + 2):
            s = 0
            for c in range(max(0, r - i - 1), min(r, i) + 1):
                s += t[r - c] * poly[c]
            new.append(s % p)
        poly = new
    return poly


def _test_matrix(rng, kind, n, p):
    if kind == "dense":
        return [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        return [[rng.randrange(p) if rng.random() < 0.15 else 0 for _ in range(n)] for _ in range(n)]
    if kind == "block-triangular":
        # zero below the diagonal blocks: no pivot below the subdiagonal in
        # column cut - 1, and a zero subdiagonal entry there
        cut = rng.randint(0, n)
        return [[rng.randrange(p) if i < cut or j >= cut else 0 for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)]


def test_charpoly_matches_berkowitz_reference():
    from fszd.chartab import _charpoly_mod

    rng = random.Random(12)
    for trial in range(60):
        for kind in ("dense", "sparse", "block-triangular", "permutation"):
            for p in (2, 3, 11, 101, 2521):
                n = trial % 13
                a = _test_matrix(rng, kind, n, p)
                before = [row[:] for row in a]
                got = _charpoly_mod(a, p)
                assert a == before, (kind, n, p)
                want = _berkowitz_charpoly_mod([[x % p for x in row] for row in a], p)
                assert got == want, (kind, n, p, a)


@st.composite
def gfp_matrices(draw):
    """(p, a matrix over GF(p)) of at most 4 columns: any, zero, invertible,
    or square with its last column a combination of the others."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    kind = draw(st.sampled_from(("any", "zero", "invertible", "deficient")))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5)) if kind in ("any", "zero") else n
    entry = st.integers(0, p - 1)
    if kind == "zero":
        return p, [[0] * n for _ in range(m)]
    if kind == "invertible":
        # L * U with unit diagonals, its rows permuted
        low = [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)]
        up = [[draw(entry) if j > i else int(i == j) for j in range(n)] for i in range(n)]
        rows = draw(st.permutations(range(n)))
        return p, [[sum(low[i][t] * up[t][j] for t in range(n)) % p for j in range(n)] for i in rows]
    mat = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if kind == "deficient":
        coefs = [draw(entry) for _ in range(n - 1)]
        for row in mat:
            row[-1] = sum(c * x for c, x in zip(coefs, row)) % p
    return p, mat


@given(gfp_matrices())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_nullspace_matches_brute_force(case):
    from itertools import product as tuples

    from fszd.chartab import _nullspace_mod

    p, mat = case
    n = len(mat[0])
    null = [
        v for v in tuples(range(p), repeat=n)
        if all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in mat)
    ]
    # |null space| = p^(n - rank)
    dim = round(math.log(len(null), p))
    assert p**dim == len(null)
    got = _nullspace_mod([row[:] for row in mat], p)
    assert len(got) == dim
    free = [c for c, _ in got]
    assert free == sorted(set(free))
    for c, v in got:
        assert v[c] == 1 and all(v[f] == 0 for f in free if f != c)
        # the one null vector with those entries at the free columns
        assert [u for u in null if all(u[f] == (f == c) for f in free)] == [tuple(v)]


# L2(31) = PSL(2, 31) on the projective line GF(31) u {inf}, x as point
# x + 1 and inf as point 32, generated by x -> x + 1 and x -> -1/x: order
# 14880, 18 classes
L2_31_SPEC = (
    "perm:(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31);"
    "(1,32)(2,31)(3,16)(4,11)(5,24)(6,7)(8,23)(9,28)(10,25)(12,15)(13,19)(14,20)(17,30)(18,21)"
    "(22,29)(26,27)"
)

TABLE_DIGESTS = {
    "C25": "ecd0d0ba8b5d9c2464b618d280a18ebbe7d5055bd134ccff119bcd8b9cfdad2b",
    "C5xC5": "4b78c632a9c2846c4a7c01d354da7be5ed785818e1e8624ff591d1bb5ab0e983",
    "Q8xC3": "f75be9dd7515da9cb510ef214e864cb500155600bef02a56228a17bb7970098d",
    SL23_SPEC: "8bc10bd34551696642f1c50b256e97ef739b9d763aa5d79bf9943a1a4d175ec4",
    "S8": "a8f7ec446718ec5b18525bec707ea3677274982d5373dcb6e84918304eda33e6",
    "C3xC3xC3xC2": "c3830ed2e7b2745b4109630d86e0955793d69a6dbcf545f5ea67bf6e44c88b79",
    L2_31_SPEC: "4c8aee8c21982898f0772ed895ed5d200e4fd5109140d3e4b5b88486f2aec682",
}


@pytest.mark.parametrize("spec", list(TABLE_DIGESTS))
def test_table_bytes_pinned(spec):
    data = json.dumps(character_table(construct_group(spec)).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == TABLE_DIGESTS[spec]


@pytest.mark.parametrize("spec", ["A4", "A7"])
def test_corrupted_lift_fails_the_self_check(monkeypatch, spec):
    # the lift is memoized on its GF(p) column, so the one corrupted value
    # reaches every row and class that repeats that column; both groups take
    # Dixon-Schneider and have irrational values (zeta_3, b7)
    import fszd.chartab as chartab

    real = chartab.from_root_combination
    corrupted = []

    def corrupt_first_irrational(n, mults):
        value = real(n, mults)
        if not corrupted and not value.is_rational():
            corrupted.append(value)
            return value + 1
        return value

    monkeypatch.setattr(chartab, "from_root_combination", corrupt_first_irrational)
    with pytest.raises(TableComputationError):
        character_table(construct_group(spec))
    assert corrupted


def test_row_index_is_built_on_first_lookup():
    G = construct_group("S4")
    table = character_table(G)
    assert table._by_values is None
    assert set(table.irreducibles[table.trivial_index()].values) == {Cyclotomic.rational(1)}
    assert [table.index_of(cf) for cf in table.irreducibles] == list(range(len(table.irreducibles)))
    with pytest.raises(ValueError, match="not an irreducible"):
        table.index_of(table.irreducibles[1] * 2)


def test_corrupted_rational_value_fails_the_integer_self_check(monkeypatch):
    # every value of Q8's table is rational, so the whole self-check runs on
    # the plain integer sums and never reaches _dot; Q8 takes Dixon-Schneider
    import fszd.chartab as chartab

    def forbidden(*args, **kwargs):
        raise AssertionError("_dot used on a rational table")

    real = chartab.from_root_combination
    corrupted = []

    def corrupt_first_off_identity(n, mults):
        value = real(n, mults)
        if not corrupted and n > 1:
            corrupted.append(value)
            return value + 1
        return value

    monkeypatch.setattr(chartab, "_dot", forbidden)
    monkeypatch.setattr(chartab, "from_root_combination", corrupt_first_off_identity)
    with pytest.raises(TableComputationError, match="row orthogonality"):
        character_table(construct_group("Q8"))
    assert corrupted and corrupted[0].is_rational()


# every row of these tables is rational
RATIONAL_SPECS = ("S4", "S5", "C2xS5", "Q8")


@st.composite
def rational_values(draw, k):
    return [
        Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from((1, 1, 2, 3, 4, 6, 35))))
        for _ in range(k)
    ]


@given(st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_rational_rows_sum_as_dot_does(data):
    """inner_product and class_sum on rational class functions take the
    plain integer sum; it must give exactly what _dot gives."""
    from fszd.chartab import _dot

    table = character_table(get_group(data.draw(st.sampled_from(RATIONAL_SPECS))))
    k = len(table.classes)
    f = ClassFunction(table.classes, data.draw(rational_values(k)))
    if data.draw(st.booleans()):
        g = table.irreducibles[data.draw(st.integers(0, k - 1))]
    else:
        g = ClassFunction(table.classes, data.draw(rational_values(k)))
    order = table.group.order()
    sizes = [cl.size for cl in table.classes.classes]
    for a, b in ((f, g), (g, f), (f, f), (g, g)):
        da, va, a_rational = a._integer_form()
        db, vb, b_rational = b._integer_form()
        assert a_rational and b_rational
        got = inner_product(a, b)
        assert got == _dot(zip(sizes, va, vb), order * da * db)
        assert got == _reference_inner_product(a, b)
        assert _is_canonical(got)
    weights = data.draw(st.dictionaries(st.integers(0, k - 1), st.integers(-9, 9)))
    den = data.draw(st.integers(1, 12))
    for a in (f, g):
        d, forms, _ = a._integer_form()
        got = class_sum(a, weights, den)
        assert got == _dot(((w, forms[c], 1) for c, w in weights.items()), den * d)
        assert got == _reference_class_sum(a, weights, den)
        assert _is_canonical(got)


@given(st.data())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_rational_column_sums_match_dot(data):
    """root_pair_counts over a table whose rows are all rational, at any
    union of classes, gives exactly what _dot gives as the sums of the exact
    betas against the rows, and never reaches _dot or Cyclotomic arithmetic."""
    import fszd.chartab as chartab

    def forbidden(*args, **kwargs):
        raise AssertionError("_dot or Cyclotomic arithmetic used")

    table = character_table(get_group(data.draw(st.sampled_from(RATIONAL_SPECS))))
    k = len(table.classes)
    roots = sorted(data.draw(st.sets(st.integers(0, k - 1))))
    betas = _reference_betas(table, roots)
    den, forms, _ = chartab._integer_forms(betas)
    rows = []
    for chi in table.irreducibles:
        d, row, rational = chi._integer_form()
        assert d == 1 and rational
        rows.append(row)
    want = [chartab._dot(((1, a, row[c]) for a, row in zip(forms, rows)), den) for c in range(k)]
    table._mod = None  # so the GF(p) image is built under the patches too
    with pytest.MonkeyPatch.context() as m:
        m.setattr(chartab, "_dot", forbidden)
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
            m.setattr(Cyclotomic, name, forbidden)
        got = root_pair_counts(table, roots, "test")
    assert [Cyclotomic.rational(v) for v in got] == want
    assert want == _reference_character_sums(betas, table)


# -- direct products by orbit decomposition -------------------------------------

# the benchmark's sweep groups, besides ACCEPTANCE_SPECS
SWEEP_SPECS = ("S8", "S7", "A7", "C2xS5", "C3xC3xC2", "C4xC4", "Q8xC3", "D4xC3", "C2xC2xC2xC2")


def _dixon_schneider_table(H):
    """H's table by Dixon-Schneider alone, on a fresh copy of H, sorted and
    self-checked as ``character_table`` does."""
    from fszd.chartab import CharacterTable, _dixon_schneider_rows, _quick_check, _row_key

    G = Group(H.degree, H.generators, name=H.name)
    cs = G.conjugacy_classes()
    table = CharacterTable(G, cs, sorted(_dixon_schneider_rows(G, cs), key=_row_key))
    _quick_check(table)
    return table


def _same_table(a, b):
    assert [cl.rep for cl in a.classes.classes] == [cl.rep for cl in b.classes.classes]
    assert [cf.values for cf in a.irreducibles] == [cf.values for cf in b.irreducibles]


def test_product_tables_match_dixon_schneider():
    from fszd import Session
    from fszd.permcore import _orbit_factors

    decomposable = {}
    for spec in ACCEPTANCE_SPECS + SWEEP_SPECS:
        S = Session(construct_group(spec))
        groups = {id(H): H for H in map(S.centralizer_group, range(len(S.classes)))}
        decomposable[spec] = 0
        for H in groups.values():
            if _orbit_factors(H) is None:
                continue
            decomposable[spec] += 1
            _same_table(character_table(H), _dixon_schneider_table(H))
    # S8: 15 of its 20 distinct centralizers; every centralizer of C2xS5
    assert decomposable["S8"] == 15
    assert decomposable["C2xS5"] == 6
    assert decomposable[SL23_SPEC] == 0
    assert decomposable["C4xC4"] == 1


@given(two_generator_groups(), two_generator_groups())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_random_direct_products_match_dixon_schneider(A, B):
    from fszd.permcore import _direct_product

    assume(A.order() * B.order() <= 2000)
    G = _direct_product(A, B)
    _same_table(character_table(G), _dixon_schneider_table(G))


def test_diagonal_centralizer_takes_no_product_route(monkeypatch):
    # C_4 = <i> x C3 in Q8xC3: <i> has two orbits of 4 points, so the orbit
    # groups have orders 4 * 4 * 3 != 12 and the test must not decompose it.
    # The group is cyclic of order 12, so the cyclic route builds its table
    import fszd.chartab as chartab
    from fszd import Session, permcore

    S = Session(construct_group("Q8xC3"))
    z = next(c for c, cl in enumerate(S.classes.classes) if cl.order == 4)
    H = S.centralizer_group(z)
    assert H.order() == 12
    orbits = set()
    for start in range(H.degree):
        orbit = {start}
        while not (images := {g.img[p] for g in H.generators for p in orbit}) <= orbit:
            orbit |= images
        orbits.add(frozenset(orbit))
    assert sorted(len(o) for o in orbits if len(o) > 1) == [3, 4, 4]
    assert permcore._orbit_factors(H) is None

    def no_product(*args):
        raise AssertionError("product reduction taken on a diagonal subgroup")

    monkeypatch.setattr(chartab, "_product_rows", no_product)
    table = character_table(H)
    assert table.degrees == (1,) * 12


_PRODUCT_MUTATIONS = """
import fszd.chartab as chartab
from fszd import ClassFunction, TableComputationError, construct_group
from fszd.chartab import CharacterTable

real_map = chartab._class_map


def collapse(cs, coords):
    coords[1] = coords[0]
    return coords


def swap_where(same_size):
    def swap(cs, coords):
        cl = cs.classes
        i, j = next(
            (i, j)
            for i in range(len(cl))
            for j in range(i)
            if (cl[i].size == cl[j].size) == same_size and cl[i].order != cl[j].order
        )
        coords[i], coords[j] = coords[j], coords[i]
        return coords
    return swap


def swap_first_two(cs, coords):
    coords[1], coords[2] = coords[2], coords[1]
    return coords


for spec, mutate in (
    ("C4xC4", collapse),
    ("S4xS3", swap_where(False)),
    ("C4xC4", swap_where(True)),
    ("C4xC4", swap_first_two),
):
    chartab._class_map = lambda cs, factors, tables: mutate(cs, real_map(cs, factors, tables))
    try:
        chartab.character_table(construct_group(spec))
    except TableComputationError as exc:
        print(exc)
chartab._class_map = real_map

real_table = chartab.character_table
for spec in ("C4xC4", "S4xS3"):
    G = construct_group(spec)

    def corrupting(H):
        table = real_table(H)
        if H is G:
            return table
        rows = list(table.irreducibles)
        values = list(rows[-1].values)
        values[1] = values[1] * 2
        rows[-1] = ClassFunction(table.classes, values)
        return CharacterTable(H, table.classes, rows)

    chartab.character_table = corrupting
    try:
        real_table(G)
    except TableComputationError as exc:
        print(str(exc).split(":")[0])
    chartab.character_table = real_table
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_product_mutations_raise_typed_errors(flags):
    # pytest's own asserts vanish under -O, so run the mutations in a child
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _PRODUCT_MUTATIONS],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out[0] == "product class map is not a bijection (Group[C4xC4] as a product of 2 orbit groups)"
    assert out[1].startswith("product class size mismatch (Group[S4xS3] as a product of 2 orbit groups, class ")
    assert out[2].startswith("product element order mismatch (Group[C4xC4] as a product of 2 orbit groups, class ")
    # classes 1 and 2 of C4xC4 have equal size and order: only the
    # position check tells them apart
    assert out[3] == "product class position mismatch (Group[C4xC4] as a product of 2 orbit groups, class 1)"
    assert out[4:] == [
        "row orthogonality check failed for Group[C4xC4]",
        "row orthogonality check failed for Group[S4xS3]",
    ]


_STRUCTURE_CONSTANT_MUTATION = """
from fszd import TableComputationError, character_table, class_mult_coeff, construct_group
from fszd import verify_class_algebra

G = construct_group("D4")
table = character_table(G)
cs = G.conjugacy_classes()
cs.classes[2].size += 1  # 2 -> 3: a class of reflections
G._chartab = None
for call in (
    lambda: class_mult_coeff(cs, 2, 1, 2),
    lambda: verify_class_algebra(table),
    lambda: character_table(G),
):
    try:
        call()
    except TableComputationError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_non_integral_structure_constant_raises_a_typed_error(flags):
    # every caller of the class-matrix rows divides by class sizes; a wrong
    # size leaves a remainder, which must raise even with asserts stripped.
    # D4 takes Dixon-Schneider, which reads the class-matrix rows
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _STRUCTURE_CONSTANT_MUTATION],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    # a reflection times the central rotation r^2 is a reflection of the
    # same class, twice: 1 * 2 / 3
    assert out[0] == "class algebra: a_ij^l = 2/3 is not an integer at classes i=2, j=1, l=2 (Group[D4])"
    # row 0 of class matrix 2 is class 2 itself: 1 * 2 / 3, and it is the
    # first row verify_class_algebra reads (the rows of class matrix 1, of
    # the central r^2, leave no remainder)
    assert out[1] == "class algebra: a_ij^l = 2/3 is not an integer at classes i=2, j=0, l=2 (Group[D4])"
    # Dixon-Schneider reads class matrix 2 only at the pivots of the spaces
    # class matrix 1 left unsplit, and row 1 comes first there
    assert out[2] == out[0]


def _certificate_gram(monkeypatch, table):
    """(p, the upper triangle of the Gram matrix mod p) that
    ``_row_certificate`` checks on table."""
    import fszd.chartab as chartab

    primes, rows = [], []
    gram_rows = chartab._gram_rows

    def recording(vals, sizes, p):
        primes.append(p)
        for row in gram_rows(vals, sizes, p):
            rows.append(row)
            yield row

    with monkeypatch.context() as m:
        m.setattr(chartab, "_gram_rows", recording)
        chartab._row_certificate(table)
    return primes[0], rows


def _assert_gram_matches_inner_products(monkeypatch, table):
    p, gram = _certificate_gram(monkeypatch, table)
    irr = table.irreducibles
    conj = [ClassFunction(table.classes, [v.galois(-1) for v in chi.values]) for chi in irr]
    n = table.group.order()
    assert [len(row) for row in gram] == list(range(len(irr), 0, -1))
    for i, row in enumerate(gram):
        for l, got in enumerate(row, start=i):
            # |G| <chi_i, conj(chi_l)> = sum of |C_c| chi_i(c) chi_l(c)
            assert got == (inner_product(irr[i], conj[l]) * n).as_integer() % p


# every table the tests pin or the benchmark sweeps
CERTIFIED_SPECS = tuple(dict.fromkeys(ACCEPTANCE_SPECS + SWEEP_SPECS + tuple(TABLE_DIGESTS)))


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_certificate_gram_matches_exact_inner_products(monkeypatch, spec):
    _assert_gram_matches_inner_products(monkeypatch, character_table(get_group(spec)))


@given(two_generator_groups())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_certificate_gram_matches_on_random_groups(G):
    with pytest.MonkeyPatch.context() as m:
        _assert_gram_matches_inner_products(m, character_table(G))


# -- tables by formula: cyclic and symmetric groups -----------------------------


def _sym(degree, points):
    """Sym(points) inside S_degree, points 1-based: a transposition and a
    cycle through all of them, in the given order."""
    return Group(
        degree,
        [Permutation.from_cycles(degree, [points[:2]]), Permutation.from_cycles(degree, [points])],
        name=f"Sym{tuple(points)} in S{degree}",
    )


def _route_values(rows):
    from fszd.chartab import _row_key

    return [cf.values for cf in sorted(rows, key=_row_key)]


# S_k on 1..k, on shuffled points, and inside a larger degree with fixed points
SYMMETRIC_GROUPS = [construct_group(f"S{k}") for k in range(3, 9)] + [
    _sym(5, [4, 1, 5, 2, 3]),
    _sym(6, [6, 2, 5, 1, 3, 4]),
    _sym(10, [2, 5, 7, 9]),
    _sym(9, [9, 3, 1, 6, 4]),
]


@pytest.mark.parametrize("G", SYMMETRIC_GROUPS, ids=repr)
def test_symmetric_rows_match_dixon_schneider(G):
    from fszd.chartab import _symmetric_rows

    cs = G.conjugacy_classes()
    k = len(cs.construction.points)
    assert G.order() == math.factorial(k)
    want = _route_values(_dixon_schneider_table(G).irreducibles)
    assert _route_values(_symmetric_rows(cs, tuple(cs.construction.at))) == want


def _cyclic(name, degree, *cycle_lists):
    return Group(degree, [Permutation.from_cycles(degree, cycles) for cycles in cycle_lists], name=name)


# C_n on an n-cycle, and cyclic groups no generator of which is an n-cycle:
# C4 on a 4-cycle times a transposition (its orbit groups have orders 4 * 2,
# so it is no orbit product), C6 = <x^2, x^3> for a 6-cycle x, and C12 on
# a 4-cycle and a 3-cycle
CYCLIC_GROUPS = [construct_group(f"C{n}") for n in range(1, 41)] + [
    _cyclic("C4 on (1,2,3,4)(5,6)", 6, [(1, 2, 3, 4), (5, 6)]),
    _cyclic("C6 on x^2, x^3", 6, [(1, 3, 5), (2, 4, 6)], [(1, 4), (2, 5), (3, 6)]),
    _cyclic("C12 on (1,2,3,4)(5,6,7)", 7, [(1, 2, 3, 4), (5, 6, 7)]),
]


@pytest.mark.parametrize("G", CYCLIC_GROUPS, ids=repr)
def test_cyclic_rows_match_dixon_schneider(G):
    from fszd.chartab import _cyclic_rows

    cs = G.conjugacy_classes()
    c = next(c for c, cl in enumerate(cs.classes) if cl.order == G.order())
    want = _route_values(_dixon_schneider_table(G).irreducibles)
    assert _route_values(_cyclic_rows(cs, c)) == want


def test_two_point_symmetric_groups_match_the_cyclic_route(monkeypatch):
    # S1, S2, C2 and every C2 on two points (C2xS5's first factor, the S2
    # factor of a transposition's centralizer in S_n) are symmetric groups on
    # the points they move, so Murnaghan-Nakayama builds their tables; they
    # are cyclic too, and the cyclic route must give the same sorted table
    import fszd.chartab as chartab
    from fszd.permcore import _Symmetric, _orbit_factors

    cyclic_rows = chartab._cyclic_rows

    def forbidden(*args):
        raise AssertionError("cyclic route taken by a symmetric group")

    monkeypatch.setattr(chartab, "_cyclic_rows", forbidden)
    groups = [construct_group(spec) for spec in ("S1", "S2", "C2")]
    groups.append(_orbit_factors(construct_group("C2xS5"))[0][1])
    for n in range(4, 9):
        Sn = construct_group(f"S{n}")
        groups.append(_orbit_factors(centralizer(Sn, Permutation.from_cycles(n, [(1, 2)])))[0][1])
    for G in groups:
        table = character_table(G)
        assert isinstance(G._construction, _Symmetric) and G.order() <= 2
        cs = table.classes
        c = next(c for c, cl in enumerate(cs.classes) if cl.order == G.order())
        assert [cf.values for cf in table.irreducibles] == _route_values(cyclic_rows(cs, c))


def test_formula_routes_need_no_dixon_schneider(monkeypatch):
    import fszd.chartab as chartab

    def forbidden(*args):
        raise AssertionError("Dixon-Schneider run on a cyclic or symmetric group")

    monkeypatch.setattr(chartab, "_dixon_schneider_rows", forbidden)
    groups = [construct_group("S9"), construct_group("C25"), construct_group("C30")]
    for G in groups + SYMMETRIC_GROUPS + CYCLIC_GROUPS[:12] + CYCLIC_GROUPS[-3:]:
        G = Group(G.degree, G.generators)
        table = character_table(G)
        assert sum(d * d for d in table.degrees) == G.order()
    assert character_table(groups[0]).degrees[-1] == 216  # S9's largest degree, of (5,2,1,1)


@pytest.mark.parametrize("spec", ["A4", "A5", "D4", "Q8", SL23_SPEC])
def test_other_groups_take_dixon_schneider(monkeypatch, spec):
    import fszd.chartab as chartab

    calls = []
    real = chartab._dixon_schneider_rows
    monkeypatch.setattr(chartab, "_dixon_schneider_rows", lambda G, cs: calls.append(G) or real(G, cs))
    G = construct_group(spec)
    character_table(G)
    assert calls == [G]


_FORMULA_MUTATIONS = """
import fszd.chartab as chartab
from fszd import ClassFunction, TableComputationError, construct_group

for spec, route in (("C25", "_cyclic_rows"), ("S6", "_symmetric_rows")):
    real = getattr(chartab, route)

    def corrupting(cs, arg):
        rows = real(cs, arg)
        values = list(rows[1].values)
        values[2] = values[2] + 1
        rows[1] = ClassFunction(cs, values)
        return rows

    setattr(chartab, route, corrupting)
    try:
        chartab.character_table(construct_group(spec))
    except TableComputationError as exc:
        print(exc)
    setattr(chartab, route, real)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_formula_mutations_raise_typed_errors(flags):
    # one value moved in a cyclic row and in a symmetric row: the
    # certificate and the integer inner products must catch each, also with
    # asserts stripped
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _FORMULA_MUTATIONS],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert len(out) == 2
    assert out[0].startswith("row orthogonality check failed for Group[C25]: ")
    assert out[1].startswith("row orthogonality check failed for Group[S6]: ")


# -- Dixon-Schneider: scalar class matrices split nothing -------------------------


def _split_counts(monkeypatch, G):
    """(spaces of dimension > 1 given to a split, charpolys taken, their
    matrices) while G's table is built by Dixon-Schneider."""
    import fszd.chartab as chartab

    spaces, matrices = [], []
    split, charpoly = chartab._split_eigenspaces, chartab._charpoly_mod

    def counting_split(sp, mat_rows, p):
        spaces.extend(rows for rows, _ in sp if len(rows) > 1)
        return split(sp, mat_rows, p)

    def recording_charpoly(a, p):
        matrices.append([row[:] for row in a])
        return charpoly(a, p)

    with monkeypatch.context() as m:
        m.setattr(chartab, "_split_eigenspaces", counting_split)
        m.setattr(chartab, "_charpoly_mod", recording_charpoly)
        character_table(G)
    return len(spaces), len(matrices), matrices


def _is_scalar(a):
    return all(x == a[0][0] * (r == c) for r, row in enumerate(a) for c, x in enumerate(row))


# (spec, spaces of dimension > 1 met, charpolys taken): the other spaces met
# a scalar class matrix and were kept whole.  SL(2,3) and Q8 meet none; at
# A7 five of eight and at L2(31) 42 of 55 met one
SPLIT_COUNTS = [
    (SL23_SPEC, 3, 3),
    ("Q8", 4, 4),
    ("A7", 8, 3),
    (L2_31_SPEC, 55, 13),
]


@pytest.mark.parametrize("spec, spaces, charpolys", SPLIT_COUNTS, ids=["SL(2,3)", "Q8", "A7", "L2(31)"])
def test_scalar_class_matrices_reach_no_charpoly(monkeypatch, spec, spaces, charpolys):
    got_spaces, got_charpolys, matrices = _split_counts(monkeypatch, construct_group(spec))
    assert not any(map(_is_scalar, matrices))
    assert (got_spaces, got_charpolys) == (spaces, charpolys)


@pytest.mark.parametrize("spec", [SL23_SPEC, "A7", L2_31_SPEC], ids=["SL(2,3)", "A7", "L2(31)"])
def test_eigenspace_bases_are_the_identity_at_their_pivots(monkeypatch, spec):
    # a split reads a vector's coordinates off its pivot entries, so every
    # space it returns must have rows[r][pivots[s]] = [r == s]; their
    # dimensions always sum to k, and the last split leaves k lines
    import fszd.chartab as chartab

    G = construct_group(spec)
    k = len(G.conjugacy_classes())
    split, splits = chartab._split_eigenspaces, []

    def checked_split(spaces, mat_rows, p):
        out = split(spaces, mat_rows, p)
        for rows, pivots in out:
            assert len(pivots) == len(rows)
            assert all(row[c] == (r == s) for r, row in enumerate(rows) for s, c in enumerate(pivots))
        assert sum(len(rows) for rows, _ in out) == k
        splits.append(len(out))
        return out

    monkeypatch.setattr(chartab, "_split_eigenspaces", checked_split)
    character_table(G)
    assert splits and splits[-1] == k


# -- integer forms, one per distinct value object ---------------------------------


def _integer_forms_per_entry(values):
    den = math.lcm(*(v.den for v in values))
    forms = [
        v.nums[0] * (den // v.den)
        if v.conductor == 1
        else (v.conductor, tuple((j, c * (den // v.den)) for j, c in enumerate(v.nums) if c))
        for v in values
    ]
    return den, tuple(forms), all(v.conductor == 1 for v in values)


def test_integer_forms_match_the_per_entry_forms():
    from fszd.chartab import _integer_forms

    for spec in CERTIFIED_SPECS:
        for chi in character_table(get_group(spec)).irreducibles:
            assert _integer_forms(chi.values) == _integer_forms_per_entry(chi.values)
    rng = random.Random(31)
    pool = [from_root(a, n) * Fraction(b, d) for a, n, b, d in
            ((1, 5, 1, 1), (2, 12, -3, 2), (0, 1, 7, 3), (3, 7, 2, 1), (0, 1, 0, 1))]
    for _ in range(200):
        # shared objects and equal values built apart, rational and not
        values = [
            rng.choice(pool) if rng.random() < 0.7 else rng.choice(pool) + 0
            for _ in range(rng.randint(1, 12))
        ]
        d, forms, rational = _integer_forms(values)
        assert (d, forms, rational) == _integer_forms_per_entry(values)
        for v, f in zip(values, forms):
            if not v.is_rational():
                # one form per distinct object
                assert f is forms[next(i for i, w in enumerate(values) if w is v)]
