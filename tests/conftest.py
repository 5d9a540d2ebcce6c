"""Shared fixtures: groups and indicator sessions are cached per test run."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from fszd import BadDivisorError, ClassFunction, Group, NotInGroupError, Permutation, Session
from fszd import centralizer, conjugator, construct_group, sqrt_cyclotomic
from fszd._nt import euler_phi

# SL(2,3) acting on the eight nonzero vectors of F_3^2
SL23_SPEC = "perm:(1,4,7)(2,8,5);(1,6,2,3)(4,7,8,5)"

ACCEPTANCE_SPECS = (
    "S3",
    "S4",
    "S5",
    "A4",
    "A5",
    "D4",
    "D6",
    "Q8",
    "C12",
    "C2xC4",
    SL23_SPEC,
)

_GROUPS: dict[str, Group] = {}
_SESSIONS: dict[str, Session] = {}


def get_group(spec: str) -> Group:
    if spec not in _GROUPS:
        _GROUPS[spec] = construct_group(spec)
    return _GROUPS[spec]


def get_session(spec: str) -> Session:
    if spec not in _SESSIONS:
        _SESSIONS[spec] = Session(get_group(spec))
    return _SESSIONS[spec]


def relabeled(G: Group, seed: int) -> Group:
    """G with its points shuffled: each generator conjugated by one permutation."""
    sigma = Permutation(random.Random(seed).sample(range(G.degree), G.degree))
    return Group(G.degree, [sigma.conj(g) for g in G.generators], name=f"{G.name} relabeled")


def restricted_normalizer(G: Group, g: Permutation, d: int) -> Group:
    """N_G^d(g): elements t with t*g*t^-1 = g^r, (r, exp(G)) = 1, r = 1 mod d.

    It is C_G(g) together with one element t conjugating g to each
    admissible power g^r in the class of g.
    """
    if d < 1:
        raise BadDivisorError("d must be a positive integer")
    if g not in G:
        raise NotInGroupError("restricted_normalizer: element is not in the group")
    exp = G.exponent()
    if exp % d != 0:
        raise BadDivisorError(f"d={d} does not divide exp(G)={exp}")
    o = g.order()
    gens = list(centralizer(G, g).generators)
    for r in range(o):
        # g^r is admissible when r lifts modulo o to a unit mod exp(G) that is 1 mod d
        if any(math.gcd(r + k * o, exp) == 1 and (r + k * o) % d == 1 % d for k in range(exp // o)):
            t = conjugator(G, g, g**r)
            if t is not None:
                gens.append(t)
    name = f"N^{d}_{G.name or 'G'}({g.cycle_string()})"
    return Group(G.degree, gens, name=name)


@pytest.fixture(scope="session")
def group():
    return get_group


@pytest.fixture(scope="session")
def session_for():
    return get_session


@pytest.fixture
def sqrt5_beta_at_chi_3(monkeypatch):
    """beta returns sqrt(5) at chi = 3: no group of the corpus fails FSZ, so
    an irrational real beta stands in for one."""
    import fszd.indicators as indicators

    real = indicators.beta

    def planted(session, z_class, m, chi_index):
        return sqrt_cyclotomic(5) if chi_index == 3 else real(session, z_class, m, chi_index)

    monkeypatch.setattr(indicators, "beta", planted)


def is_normal_form(v) -> bool:
    """Whether a Cyclotomic is stored as phi(conductor) integer numerators
    over one positive denominator in lowest terms, matching its coeffs."""
    return (
        type(v.den) is int
        and v.den > 0
        and all(type(c) is int for c in v.nums)
        and math.gcd(v.den, *v.nums) == 1
        and len(v.nums) == euler_phi(v.conductor)
        and v.coeffs == tuple(Fraction(c, v.den) for c in v.nums)
    )


@st.composite
def two_generator_groups(draw):
    """Random subgroups of S_n, n <= 6, generated by two permutations."""
    n = draw(st.integers(1, 6))
    gens = [Permutation(draw(st.permutations(range(n)))) for _ in range(2)]
    return Group(n, gens)


def transported_eta_index(session: Session, src_class: int, eta_index: int, t, dst_class: int) -> int:
    """Index in the destination centralizer table of t |> eta."""
    src_tab = session.centralizer_table(src_class)
    dst_tab = session.centralizer_table(dst_class)
    eta = src_tab.irreducibles[eta_index]
    tinv = t.inverse()
    values = [eta.value_at(tinv.conj(cl.rep)) for cl in dst_tab.classes.classes]
    return dst_tab.index_of(ClassFunction(dst_tab.classes, values))


def p_part(x, p: int):
    """The p-part of a permutation: x = x_p * x_p' with x_p of p-power order."""
    o = x.order()
    a = 1
    while o % p == 0:
        o //= p
        a *= p
    if a == 1:
        return x**0
    return x ** (o * pow(o, -1, a))
