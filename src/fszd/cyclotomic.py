"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a residue polynomial in zeta_N modulo the N-th cyclotomic
polynomial, with Fraction coefficients, always reduced to its minimal
conductor (never 2 mod 4).  Equality and hashing are therefore structural,
and a value is rational exactly when its residue is constant.

The minimal conductor is reached one prime at a time.  For p | N and
d = N/p, the mean over Gal(Q(zeta_N)/Q(zeta_d)) has a closed form.  When
p^2 | N it keeps the terms zeta_N^k with p | k, so it is the coefficient
vector vec[::p] at conductor d.  When p || N, write
zeta_N^k = zeta_d^(uk) zeta_p^(vk) with up + vd = 1; the term c_k zeta_N^k
goes to zeta_d^(uk) with weight c_k if p | k and -c_k/(p-1) otherwise.  The
value lies in Q(zeta_d) exactly when this mean, lifted back to conductor N,
reproduces its coefficients, so the descent is checked exactly.  Lifting,
Galois maps, products and the descent all reduce modulo Phi_N one way: a
long division by the monic Phi_N that reads only its nonzero lower terms.

Galois maps sigma_r act by zeta_N -> zeta_N^r; complex conjugation is
sigma_{-1}.  Sums and products work on the integer numerators of both
operands over their common denominators and divide once.  The printer
recognizes rationals and real quadratic irrationalities (one Galois
conjugate splits off the square root, whose sign an exact Gauss sum fixes),
and falls back to an explicit zeta-polynomial otherwise.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ._nt import euler_phi, legendre, prime_factors, squarefree_part
from .errors import InvariantError, NotCoprimeError

Rational = int | Fraction


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction modulo Phi_n


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree (monic, integer).

    Phi_pm(x) = Phi_m(x^p) / Phi_m(x) for a prime p not dividing m builds
    Phi_r for the radical r of n, and Phi_n(x) = Phi_r(x^(n/r)).
    """
    poly, r = [-1, 1], 1
    for p in prime_factors(n):
        poly = _polydiv_exact(_stretch(poly, p), poly)
        r *= p
    return tuple(_stretch(poly, n // r))


def _stretch(poly: list[int], s: int) -> list[int]:
    """poly(x^s)."""
    out = [0] * (s * (len(poly) - 1) + 1)
    out[::s] = poly
    return out


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(den) - 1]
        # den is monic in every use here
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    if any(rem):
        raise InvariantError("cyclotomic polynomial: division is not exact")
    return out


@lru_cache(maxsize=None)
def _low_terms(n: int) -> tuple[tuple[int, int], ...]:
    """(j, c) for each nonzero term c x^j of Phi_n below its leading term."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c)


def _reduce(n: int, buf: list) -> list:
    """Reduce sum of buf[k] x^k modulo Phi_n in place, by long division by
    the monic Phi_n, and cut buf to the phi(n) coefficients of the residue."""
    phi = euler_phi(n)
    low = _low_terms(n)
    for i in range(len(buf) - 1, phi - 1, -1):
        c = buf[i]
        if c:
            shift = i - phi
            for j, a in low:
                buf[shift + j] -= c * a
    del buf[phi:]
    return buf


# ---------------------------------------------------------------------------
# canonicalization: reduce a residue vector to its minimal conductor


def _accumulate_integers(n: int, terms) -> tuple[int, list[int]]:
    """The conductor-n residue vector of the sum of c * zeta_n^k over the
    (k, c) in terms, c rational, as (den, ints) with the vector ints / den:
    the numerators over a common denominator are scattered over the
    exponents mod n and reduced in integers."""
    terms = [(k, c) for k, c in terms if c]
    den = math.lcm(*(c.denominator for _, c in terms))
    buf = [0] * n
    for k, c in terms:
        buf[k % n] += c.numerator * (den // c.denominator)
    return den, _reduce(n, buf)


def _accumulate(n: int, terms) -> list[Fraction]:
    """The conductor-n residue vector of the sum of c * zeta_n^k over the
    (k, c) in terms, c rational."""
    den, buf = _accumulate_integers(n, terms)
    return [Fraction(x, den) for x in buf]


def _substitute(n: int, vec, s: int) -> list[Fraction]:
    """sum of vec[j] * zeta_n^(j*s) at conductor n: a Galois map when s is a
    unit mod n, a lift from conductor n/s when s divides n."""
    return _accumulate(n, ((j * s, c) for j, c in enumerate(vec)))


def _descend(n: int, p: int, vec: list[Fraction]) -> list[Fraction] | None:
    """The value at conductor d = n/p when it lies in Q(zeta_d), else None.

    The mean over Gal(Q(zeta_n)/Q(zeta_d)) is the identity on Q(zeta_d), so
    the value descends exactly when the mean, lifted back to conductor n,
    reproduces vec.
    """
    d = n // p
    if d % p == 0:
        # the group is sigma_{1+jd} for j < p, sending zeta_n^k to
        # zeta_n^k zeta_p^(jk); so the mean keeps the terms with p | k, which
        # is vec[::p], and its lift is vec exactly when no other term is left
        return None if any(c for k, c in enumerate(vec) if k % p) else vec[::p]
    # p || n: zeta_n^k = zeta_d^(uk) zeta_p^(vk) with up + vd = 1, and the mean
    # of zeta_p^(vk) over Gal(Q(zeta_p)/Q) is 1 if p | k and -1/(p-1) otherwise
    u = pow(p, -1, d)
    w = Fraction(-1, p - 1)
    mean = _accumulate(d, ((u * k, c if k % p == 0 else c * w) for k, c in enumerate(vec)))
    return mean if _substitute(n, mean, p) == vec else None


def _canonical(n: int, vec: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    while any(vec[1:]):
        for p in prime_factors(n):
            # d = 1 would mean rational, which the loop condition excludes
            down = _descend(n, p, vec) if p < n else None
            if down is not None:
                n, vec = n // p, down
                break
        else:
            return n, tuple(vec)
    return 1, (vec[0],)


# ---------------------------------------------------------------------------
# the value type


class Cyclotomic:
    """An exact element of a cyclotomic field, in canonical form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        vec = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(vec) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length")
        n, tup = _canonical(conductor, vec)
        self.conductor = n
        self.coeffs = tup

    @classmethod
    def _trusted(cls, conductor: int, coeffs: tuple[Fraction, ...]) -> "Cyclotomic":
        v = object.__new__(cls)
        v.conductor = conductor
        v.coeffs = coeffs
        return v

    @classmethod
    def rational(cls, q: Rational) -> "Cyclotomic":
        return cls._trusted(1, (Fraction(q),))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction | None:
        return self.coeffs[0] if self.conductor == 1 else None

    def as_integer(self) -> int:
        q = self.rational_value()
        if q is None or q.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return q.numerator

    def is_real(self) -> bool:
        return self.conductor == 1 or self.galois(-1) == self

    def in_field(self, d: int) -> bool:
        """Membership in Q(zeta_d)."""
        dc = d // 2 if d % 4 == 2 else d
        return dc % self.conductor == 0

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic | None":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        return None

    def _integer_lift(self, L: int) -> tuple[int, list[int]]:
        """(den, ints) with the value's vector at conductor L equal to ints / den."""
        s = L // self.conductor
        return _accumulate_integers(L, ((j * s, c) for j, c in enumerate(self.coeffs)))

    def __add__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor == 1:
            if o.coeffs[0] == 0:
                return self
            vec = list(self.coeffs)
            vec[0] += o.coeffs[0]
            if self.conductor == 1:
                return Cyclotomic._trusted(1, (vec[0],))
            return Cyclotomic._trusted(self.conductor, tuple(vec))
        if self.conductor == 1:
            return o + self
        L = math.lcm(self.conductor, o.conductor)
        da, va = self._integer_lift(L)
        db, vb = o._integer_lift(L)
        den = da * db
        n, tup = _canonical(L, [Fraction(a * db + b * da, den) for a, b in zip(va, vb)])
        return Cyclotomic._trusted(n, tup)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._trusted(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor == 1:
            q = o.coeffs[0]
            if q == 0:
                return ZERO
            return Cyclotomic._trusted(self.conductor, tuple(c * q for c in self.coeffs))
        if self.conductor == 1:
            return o * self
        L = math.lcm(self.conductor, o.conductor)
        da, va = self._integer_lift(L)
        db, vb = o._integer_lift(L)
        nonzero = [(j, b) for j, b in enumerate(vb) if b]
        conv = [0] * (2 * len(va) - 1)
        for i, a in enumerate(va):
            if a:
                for j, b in nonzero:
                    conv[i + j] += a * b
        den = da * db
        n, tup = _canonical(L, [Fraction(x, den) for x in _reduce(L, conv)])
        return Cyclotomic._trusted(n, tup)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = o.rational_value()
        if q is None:
            raise TypeError("division is only supported by rational values")
        return self * (Fraction(1) / q)

    def __pow__(self, k: int) -> "Cyclotomic":
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- Galois actions ------------------------------------------------------

    def galois(self, r: int) -> "Cyclotomic":
        """Image under sigma_r: zeta_N -> zeta_N^r (requires gcd(r, N) = 1)."""
        n = self.conductor
        if n == 1:
            return self
        r %= n
        if math.gcd(r, n) != 1:
            raise NotCoprimeError(f"sigma_{r} undefined at conductor {n}")
        if r == 1:
            return self
        out = _substitute(n, self.coeffs, r)
        return Cyclotomic._trusted(n, tuple(out))

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    def abs_squared(self) -> "Cyclotomic":
        return self * self.galois(-1)

    # -- output --------------------------------------------------------------

    def approx(self) -> complex:
        n = self.conductor
        if n == 1:
            return complex(self.coeffs[0])
        return sum(
            complex(c) * cmath.exp(2j * cmath.pi * j / n)
            for j, c in enumerate(self.coeffs)
            if c
        )

    def sort_key(self):
        return (self.conductor, self.coeffs)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.conductor == o.conductor and self.coeffs == o.coeffs

    def __hash__(self) -> int:
        if self.conductor == 1:
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    def __repr__(self) -> str:
        return f"Cyclotomic[{pretty(self)}]"

    def to_json_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cyclotomic":
        return cls(int(data["conductor"]), [Fraction(s) for s in data["coeffs"]])


ZERO = Cyclotomic._trusted(1, (Fraction(0),))
ONE = Cyclotomic._trusted(1, (Fraction(1),))


def from_root(k: int, n: int) -> Cyclotomic:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic(n, _accumulate(n, ((k, 1),)))


def from_root_combination(n: int, coeff_by_exponent: dict[int, Rational]) -> Cyclotomic:
    """sum of c_k * zeta_n^k for the given exponent -> coefficient mapping."""
    return Cyclotomic(n, _accumulate(n, coeff_by_exponent.items()))


def galois(v: Cyclotomic, r: int) -> Cyclotomic:
    return v.galois(r)


def abs_squared(v: Cyclotomic) -> Cyclotomic:
    return v.abs_squared()


# ---------------------------------------------------------------------------
# pretty-printing and rationality reports


@lru_cache(maxsize=None)
def sqrt_cyclotomic(d: int) -> Cyclotomic:
    """The positive square root of a squarefree d >= 1, as an exact value."""
    out = ONE
    for p in prime_factors(d):
        if p == 2:
            g = from_root(1, 8) + from_root(7, 8)
        else:
            g = from_root_combination(p, {a: legendre(a, p) for a in range(1, p)})
            if p % 4 == 3:
                # the Gauss sum equals i*sqrt(p); peel off the i
                g = g * from_root(3, 4)
        out = out * g
    return out


def _try_quadratic(v: Cyclotomic):
    """Return (a, b, d) with v = a + b*sqrt(d) (b != 0, d squarefree), or None.

    With sigma_r the first Galois map that moves v, v is a real quadratic
    irrationality exactly when a = (v + sigma_r v)/2 is rational and
    w = (v - sigma_r v)/2 has a positive rational square; then w = b*sqrt(d).
    """
    n = v.conductor
    if n == 1:
        return None
    units = (r for r in range(2, n) if math.gcd(r, n) == 1)
    moved = next(image for image in map(v.galois, units) if image != v)
    a = ((v + moved) / 2).rational_value()
    if a is None:
        return None
    w = (v - moved) / 2
    rad = (w * w).rational_value()
    if rad is None or rad <= 0:
        return None
    m = rad.numerator * rad.denominator
    d = squarefree_part(m)
    b = Fraction(math.isqrt(m // d), rad.denominator)
    return a, (b if w == sqrt_cyclotomic(d) * b else -b), d


def _format_quadratic(a: Fraction, b: Fraction, d: int) -> str:
    den = math.lcm(a.denominator, b.denominator)
    A, B = a * den, b * den
    parts = ""
    if A:
        parts += str(A.numerator)
    mag = abs(B.numerator)
    term = f"√{d}" if mag == 1 else f"{mag}√{d}"
    if B < 0:
        parts += "-" + term
    else:
        parts += ("+" if parts else "") + term
    return f"({parts})/{den}" if den > 1 else parts


def _format_polynomial(v: Cyclotomic) -> str:
    n = v.conductor
    parts = []
    for j, c in enumerate(v.coeffs):
        if c == 0:
            continue
        if j == 0:
            parts.append(str(c))
            continue
        sym = f"ζ{n}" if j == 1 else f"ζ{n}^{j}"
        mag = abs(c)
        body = sym if mag == 1 else f"{mag}{sym}"
        if c < 0:
            parts.append("-" + body)
        else:
            parts.append(("+" if parts else "") + body)
    return "".join(parts) if parts else "0"


def pretty(v: Cyclotomic) -> str:
    q = v.rational_value()
    if q is not None:
        return str(q)
    quad = _try_quadratic(v)
    if quad is not None:
        return _format_quadratic(*quad)
    return _format_polynomial(v)


def approx_float(v: Cyclotomic):
    """Float approximation: a real number when the value is real."""
    z = v.approx()
    if abs(z.imag) < 1e-9:
        return round(z.real, 12)
    return complex(round(z.real, 12), round(z.imag, 12))


class RationalityInfo(NamedTuple):
    is_rational: bool
    value: Fraction | None
    pretty: str
    approx: float | complex


def rationality(v: Cyclotomic) -> RationalityInfo:
    """Rationality flag, exact rational value when present, pretty string,
    and a floating approximation."""
    return RationalityInfo(v.is_rational(), v.rational_value(), pretty(v), approx_float(v))
