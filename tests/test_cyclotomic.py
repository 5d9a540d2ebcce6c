import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fszd import (
    Cyclotomic,
    NotCoprimeError,
    abs_squared,
    from_root,
    from_root_combination,
    galois,
    pretty,
    rationality,
    sqrt_cyclotomic,
)
from fszd._nt import prime_factors

from conftest import is_normal_form

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 36]

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


@st.composite
def cyclotomics(draw, conductors=CONDUCTORS):
    n = draw(st.sampled_from(conductors))
    terms = draw(
        st.dictionaries(st.integers(0, 2 * n), rationals, min_size=0, max_size=4)
    )
    return from_root_combination(n, terms)


# -- construction examples -----------------------------------------------------


def test_from_root_examples():
    assert from_root(0, 5) == 1
    assert from_root(4, 4) == 1
    assert from_root(3, 6) == -1
    assert from_root(-1, 5) == from_root(4, 5)


def test_arith_examples():
    assert from_root(1, 4) + from_root(3, 4) == 0
    assert from_root(1, 3) + from_root(2, 3) == -1
    assert from_root(1, 5) * from_root(4, 5) == 1
    assert -from_root(1, 3) == from_root(1, 3) * (-1)


def test_galois_examples():
    assert galois(from_root(1, 3), 2) == from_root(2, 3)
    assert galois(from_root(1, 5), -1) == from_root(4, 5)
    assert galois(Cyclotomic.rational(Fraction(3, 2)), 7) == Fraction(3, 2)
    with pytest.raises(NotCoprimeError):
        galois(from_root(1, 8), 2)


def test_abs_squared_examples():
    assert abs_squared(1 + from_root(1, 4)) == 2
    v = abs_squared(from_root(1, 5) + from_root(4, 5))
    assert v == 2 + from_root(2, 5) + from_root(3, 5)
    assert pretty(v) == "(3-√5)/2"
    assert abs_squared(Cyclotomic.rational(3)) == 9


def test_rationality_examples():
    root_sum = sum((from_root(k, 5) for k in range(1, 5)), Cyclotomic.rational(0))
    info = rationality(root_sum)
    assert info.is_rational and info.value == -1 and info.pretty == "-1"

    value = from_root_combination(5, {1: -60, 4: -60, 2: -10, 3: -10})
    info = rationality(value)
    assert not info.is_rational and info.value is None
    assert info.pretty == "35-25√5"
    assert abs(info.approx - (35 - 25 * math.sqrt(5))) < 1e-9

    info = rationality(from_root(1, 8) + from_root(7, 8))
    assert info.pretty == "√2"


def test_pretty_half_integer_quadratic():
    # (1325 + 25*sqrt(5))/2 style rendering with a common denominator
    value = Cyclotomic.rational(Fraction(1325, 2)) + sqrt_cyclotomic(5) * Fraction(25, 2)
    assert pretty(value) == "(1325+25√5)/2"
    negated = Cyclotomic.rational(Fraction(1325, 2)) - sqrt_cyclotomic(5) * Fraction(25, 2)
    assert pretty(negated) == "(1325-25√5)/2"
    assert pretty(-sqrt_cyclotomic(2)) == "-√2"
    assert pretty(sqrt_cyclotomic(3) * 2 - 1) == "-1+2√3"


def test_rationality_handles_plain_roots():
    info = rationality(from_root(2, 5))
    assert not info.is_rational
    assert info.pretty == "ζ5^2"
    assert pretty(from_root(1, 5) * 3) == "3ζ5"
    assert pretty(-from_root(1, 5) - from_root(1, 5)) == "-2ζ5"


def test_zero_and_rational_forms():
    for zero in (
        Cyclotomic.rational(0),
        from_root(1, 5) - from_root(1, 5),
        from_root(1, 12) * 0,
        Cyclotomic(8, [0, 0, 0, 0]),
        from_root_combination(9, {}),
    ):
        assert (zero.conductor, zero.den, zero.nums) == (1, 1, (0,))
        assert zero.is_zero() and zero == 0 and hash(zero) == 0
    half = from_root(1, 3) / 2 + from_root(2, 3) / 2
    assert (half.conductor, half.den, half.nums) == (1, 2, (-1,))
    assert half.rational_value() == Fraction(-1, 2) and half.coeff_texts() == ["-1/2"]
    v = Cyclotomic(5, [Fraction(2, 6), Fraction(-1, 4), 0, 1])
    assert (v.den, v.nums) == (12, (4, -3, 0, 12))
    assert v.coeffs == (Fraction(1, 3), Fraction(-1, 4), 0, 1)
    assert v.coeff_texts() == ["1/3", "-1/4", "0", "1"]


def test_conductor_canonicalization():
    assert from_root(1, 6).conductor == 3  # 2 mod 4 conductor never minimal
    assert (from_root(1, 8) * from_root(1, 8)).conductor == 4
    assert (from_root(1, 12) ** 3).conductor == 4
    assert (from_root(1, 5) - from_root(1, 5)).conductor == 1


def test_json_round_trip():
    value = from_root_combination(12, {1: Fraction(1, 2), 7: -2})
    packed = json.dumps(value.to_json_dict())
    assert Cyclotomic.from_json_dict(json.loads(packed)) == value
    assert json.loads(packed)["conductor"] == value.conductor


def test_in_field():
    assert from_root(1, 5).in_field(10)  # Q(zeta_10) = Q(zeta_5)
    assert not from_root(1, 5).in_field(4)
    assert sqrt_cyclotomic(2).in_field(8)
    assert not sqrt_cyclotomic(2).in_field(4)
    assert Cyclotomic.rational(7).in_field(1)


def test_large_conductor_with_small_radical():
    # lcm(16, 25, 27) = 10800, with phi(10800) = 2880
    z16, z25, z27 = (cmath.exp(2j * cmath.pi / n) for n in (16, 25, 27))
    a = from_root(1, 16) + from_root(1, 25) + from_root(1, 27)
    b = from_root(3, 16) - from_root(2, 27)
    assert a.conductor == 10800 and len(a.coeffs) == 2880
    assert (a * b).conductor == 10800
    assert abs(a.approx() - (z16 + z25 + z27)) < 1e-9
    assert abs((a * b).approx() - (z16 + z25 + z27) * (z16**3 - z27**2)) < 1e-9
    assert a * b - from_root(1, 25) * b == (from_root(1, 16) + from_root(1, 27)) * b


def test_sqrt_cyclotomic_values():
    for d in (1, 2, 3, 5, 6, 7, 10, 15):
        root = sqrt_cyclotomic(d)
        assert abs(root.approx() - math.sqrt(d)) < 1e-9
        assert root * root == d


# -- canonical form -------------------------------------------------------------


@given(cyclotomics())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_conductor_is_minimal(v):
    # checked with galois alone: for every prime p | c, some sigma_r with
    # r = 1 mod c/p (so fixing Q(zeta_{c/p})) moves v
    c = v.conductor
    assert c % 4 != 2
    for p in prime_factors(c):
        d = c // p
        if d > 1:
            kernel = [r for r in range(1 + d, c, d) if math.gcd(r, c) == 1]
            assert any(v.galois(r) != v for r in kernel), (v, p)


@given(
    st.sampled_from(CONDUCTORS),
    st.dictionaries(st.integers(0, 71), rationals, min_size=0, max_size=4),
    st.integers(2, 4),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_canonical_form_is_independent_of_construction(n, terms, k):
    # the same roots of unity, written at conductor k*n
    v = from_root_combination(n, terms)
    w = from_root_combination(k * n, {e * k: c for e, c in terms.items()})
    assert v == w
    assert (w.conductor, w.coeffs, hash(w)) == (v.conductor, v.coeffs, hash(v))


# -- the stored form -----------------------------------------------------------


@given(cyclotomics(), cyclotomics(), rationals, st.integers(0, 1000))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_results_are_in_normal_form(a, b, q, pick):
    n = a.conductor
    units = [r for r in range(1, n + 1) if math.gcd(r, n) == 1]
    results = [a, b, a + b, a - b, a * b, -a, a + q, q - a, a * q, a.galois(units[pick % len(units)])]
    if q:
        results.append(a / q)
    for v in results:
        assert is_normal_form(v), v
        assert v.coeff_texts() == [str(c) for c in v.coeffs]
        assert v.to_json_dict() == {"conductor": v.conductor, "coeffs": [str(c) for c in v.coeffs]}


@given(st.one_of(rationals, st.integers(-(10**20), 10**20), st.fractions(max_denominator=10**9)))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_rational_hash_matches_fraction(q):
    v = Cyclotomic.rational(q)
    assert hash(v) == hash(q) == hash(Fraction(q))
    assert v == q and v.rational_value() == q
    assert hash(v + from_root(1, 7) - from_root(1, 7)) == hash(q)


def test_integral_hash_builds_no_fraction(monkeypatch):
    values = [Cyclotomic.rational(n) for n in (0, 1, -1, -2, 7, 10**30, -(10**30))]
    new = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    hashes = [hash(v) for v in values]
    monkeypatch.undo()
    assert built == []
    assert hashes == [hash(v.nums[0]) for v in values] == [hash(Fraction(v.nums[0])) for v in values]


def test_equality_with_plain_numbers_matches_hash():
    third = Cyclotomic.rational(Fraction(1, 3))
    root = from_root(1, 5)
    cases = [
        (Cyclotomic.rational(0), 0, True),
        (Cyclotomic.rational(0), False, True),
        (Cyclotomic.rational(0), Fraction(0), True),
        (Cyclotomic.rational(1), 1, True),
        (Cyclotomic.rational(1), True, True),
        (Cyclotomic.rational(1), Fraction(1), True),
        (Cyclotomic.rational(-7), -7, True),
        (Cyclotomic.rational(-7), Fraction(-14, 2), True),
        (Cyclotomic.rational(-(10**30)), -(10**30), True),
        (Cyclotomic.rational(-7), 7, False),
        (third, 0, False),
        (third, Fraction(1, 3), True),
        (third, 1, False),
        (root, 1, False),
        (root, 0, False),
        (root, True, False),
        (root, Fraction(1, 5), False),
        (root + 1 - root, 1, True),
        (sqrt_cyclotomic(5) * sqrt_cyclotomic(5), 5, True),
        # Cyclotomic pairs: equal, and differing only in den or only in conductor
        (root, from_root(6, 5), True),
        (third, Cyclotomic.rational(Fraction(1, 2)), False),
        (root, root * Fraction(1, 2), False),
        (from_root(1, 3), from_root(1, 4), False),
    ]
    for v, x, equal in cases:
        assert (v == x) is equal and (x == v) is equal and (v != x) is not equal, (v, x)
        if equal:
            assert hash(v) == hash(x), (v, x)
    assert {Cyclotomic.rational(2): "two"}[2] == "two"
    assert Cyclotomic.rational(2) in {2, 3} and from_root(1, 4) not in {0, 1}


# -- algebraic laws -------------------------------------------------------------


@given(cyclotomics(), cyclotomics())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


def fraction_product(a, b):
    """a * b as a Fraction convolution of the power-basis coefficients at
    the lcm conductor, kept as the reference for the integer-numerator
    convolution of ``Cyclotomic.__mul__``."""
    L = math.lcm(a.conductor, b.conductor)
    sa, sb = L // a.conductor, L // b.conductor
    terms = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = (i * sa + j * sb) % L
            terms[k] = terms.get(k, Fraction(0)) + x * y
    product = from_root_combination(L, terms)
    return product.conductor, product.coeffs


@given(cyclotomics(), cyclotomics())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_product_matches_fraction_convolution(a, b):
    product = a * b
    assert (product.conductor, product.coeffs) == fraction_product(a, b)


@given(cyclotomics(), cyclotomics(), cyclotomics())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_associativity_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cyclotomics())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_rationality_iff_galois_fixed(v):
    n = v.conductor
    units = [r for r in range(1, n + 1) if math.gcd(r, n) == 1]
    fixed = all(v.galois(r) == v for r in units)
    assert fixed == v.is_rational()


@given(cyclotomics())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_galois_group_action(v):
    n = v.conductor
    units = [r for r in range(1, n + 1) if math.gcd(r, n) == 1]
    assert v.galois(1) == v
    for r in units[:4]:
        for s in units[-3:]:
            assert v.galois(r).galois(s) == v.galois(r * s)


@given(cyclotomics(), cyclotomics())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_galois_is_ring_map(a, b):
    n = math.lcm(a.conductor, b.conductor)
    units = [r for r in range(1, n + 1) if math.gcd(r, n) == 1]
    for r in units[:3]:
        assert (a * b).galois(r) == a.galois(r) * b.galois(r)
        assert (a + b).galois(r) == a.galois(r) + b.galois(r)


@given(cyclotomics())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_abs_squared_properties(v):
    sq = v.abs_squared()
    assert sq.galois(-1) == sq
    n = v.conductor
    for r in [r for r in range(2, n + 1) if math.gcd(r, n) == 1][:3]:
        assert v.galois(r).abs_squared() == sq.galois(r)


@st.composite
def root_combinations(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    terms = draw(st.dictionaries(st.integers(0, n - 1), rationals, min_size=1, max_size=4))
    return n, terms


@given(root_combinations())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_approx_matches_direct_evaluation(combo):
    n, terms = combo
    value = from_root_combination(n, terms)
    direct = sum(
        complex(c) * cmath.exp(2j * cmath.pi * k / n) for k, c in terms.items()
    )
    assert abs(value.approx() - direct) < 1e-9


def test_division_and_errors():
    v = from_root(1, 5)
    assert v / Fraction(1, 2) == v * 2
    with pytest.raises(TypeError):
        v / from_root(1, 5)
    with pytest.raises(ZeroDivisionError):
        v / 0


def test_sort_key_deterministic():
    values = [from_root(k, 7) for k in range(7)]
    keys = [v.sort_key() for v in values]
    assert sorted(keys) == sorted(keys, key=lambda k: k)
    a = from_root_combination(12, {5: 2})
    b = from_root_combination(12, {5: 2})
    assert a.sort_key() == b.sort_key() and hash(a) == hash(b)


@given(st.lists(cyclotomics(conductors=[1, 3, 4, 5, 12]), min_size=2, max_size=12))
@settings(max_examples=80, derandomize=True)
def test_sort_key_orders_as_conductor_and_coeffs(values):
    # integral values key by their integer numerators, the others by Fractions
    values = values + [v * v.den for v in values]
    expected = sorted(values, key=lambda v: (v.conductor, v.coeffs))
    assert sorted(values, key=Cyclotomic.sort_key) == expected
