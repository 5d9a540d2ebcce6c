"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a residue polynomial in zeta_N modulo the N-th cyclotomic
polynomial, stored as integer numerators over one positive denominator in
lowest terms, always reduced to its minimal conductor (never 2 mod 4).
Equality and hashing are therefore structural, and a value is rational
exactly when its residue is constant.

The minimal conductor is reached one prime at a time.  For p | N and
d = N/p, the mean over Gal(Q(zeta_N)/Q(zeta_d)) has a closed form.  When
p^2 | N it keeps the terms zeta_N^k with p | k, so it is the numerator
vector nums[::p] at conductor d.  When p || N, write
zeta_N^k = zeta_d^(uk) zeta_p^(vk) with up + vd = 1; (p-1) times the mean
sends the term c_k zeta_N^k to zeta_d^(uk) with weight (p-1) c_k if p | k
and -c_k otherwise, and the denominator takes the factor p-1.  The value
lies in Q(zeta_d) exactly when this mean, lifted back to conductor N,
reproduces its numerators, so the descent is checked exactly.  Lifting,
Galois maps, products and the descent all reduce modulo Phi_N one way: a
long division by the monic Phi_N that reads only its nonzero lower terms.

Galois maps sigma_r act by zeta_N -> zeta_N^r; complex conjugation is
sigma_{-1}.  Sums, products, Galois maps and the descent run on integer
numerators only; Fraction appears only where values enter or leave: the
constructor, ``coeffs`` and ``rational_value``.  The printer recognizes
rationals and real quadratic irrationalities (one Galois conjugate splits
off the square root, whose sign an exact Gauss sum fixes), and falls back
to an explicit zeta-polynomial otherwise.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

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


def _accumulate_integers(n: int, terms) -> list[int]:
    """The conductor-n residue vector of the sum of c * zeta_n^k over the
    (k, c) in terms, c an integer: the terms are scattered over the
    exponents mod n and reduced."""
    buf = [0] * n
    for k, c in terms:
        buf[k % n] += c
    return _reduce(n, buf)


def _substitute(n: int, nums, s: int) -> list[int]:
    """sum of nums[j] * zeta_n^(j*s) at conductor n: a Galois map when s is a
    unit mod n, a lift from conductor n/s when s divides n."""
    return _accumulate_integers(n, ((j * s, c) for j, c in enumerate(nums) if c))


def _descend(n: int, p: int, nums: list[int]) -> tuple[int, list[int]] | None:
    """(s, s times the numerators at conductor d = n/p) when the value lies
    in Q(zeta_d), else None.

    The mean over Gal(Q(zeta_n)/Q(zeta_d)) is the identity on Q(zeta_d), so
    the value descends exactly when the mean, lifted back to conductor n,
    reproduces it.
    """
    d = n // p
    if d % p == 0:
        # the group is sigma_{1+jd} for j < p, sending zeta_n^k to
        # zeta_n^k zeta_p^(jk); so the mean keeps the terms with p | k, which
        # is nums[::p], and its lift is nums exactly when no other term is left
        return None if any(c for k, c in enumerate(nums) if k % p) else (1, nums[::p])
    # p || n: zeta_n^k = zeta_d^(uk) zeta_p^(vk) with up + vd = 1, and the mean
    # of zeta_p^(vk) over Gal(Q(zeta_p)/Q) is 1 if p | k and -1/(p-1) otherwise,
    # so p-1 times the mean has integer numerators
    u = pow(p, -1, d)
    s = p - 1
    mean = _accumulate_integers(
        d, ((u * k, c * s if k % p == 0 else -c) for k, c in enumerate(nums) if c)
    )
    return (s, mean) if _substitute(n, mean, p) == [c * s for c in nums] else None


def _canonical(n: int, den: int, nums: list[int]) -> "Cyclotomic":
    """The value nums / den, a residue vector at conductor n, in canonical
    form: descended one prime at a time, then in lowest terms."""
    while any(nums[1:]):
        for p in prime_factors(n):
            # d = 1 would mean rational, which the loop condition excludes
            down = _descend(n, p, nums) if p < n else None
            if down is not None:
                s, nums = down
                n //= p
                den *= s
                break
        else:
            return Cyclotomic._normal(n, den, nums)
    return Cyclotomic._normal(1, den, nums[:1])


# ---------------------------------------------------------------------------
# the value type


class Cyclotomic:
    """An exact element of a cyclotomic field, in canonical form: the sum of
    nums[j] / den * zeta^j over the phi(conductor) power-basis numerators,
    with den > 0 and gcd(den, *nums) == 1 (zero is conductor 1, den 1)."""

    __slots__ = ("conductor", "den", "nums")

    def __init__(self, conductor: int, coeffs):
        vec = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(vec) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length")
        v = from_root_combination(conductor, dict(enumerate(vec)))
        self.conductor, self.den, self.nums = v.conductor, v.den, v.nums

    @classmethod
    def _normal(cls, conductor: int, den: int, nums) -> "Cyclotomic":
        """nums / den at its minimal conductor, put in lowest terms with a
        positive denominator."""
        v = object.__new__(cls)
        if conductor == 1:
            # one numerator: a rational, the commonest result by far
            c = nums[0]
            g = math.gcd(den, c) if den > 0 else -math.gcd(den, c)
            if g != 1:
                den //= g
                c //= g
            v.conductor, v.den, v.nums = 1, den, (c,)
            return v
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
        v.conductor, v.den, v.nums = conductor, den, tuple(nums)
        return v

    @classmethod
    def rational(cls, q: Rational) -> "Cyclotomic":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return cls._normal(1, q.denominator, (q.numerator,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients nums[j] / den."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def coeff_texts(self) -> list[str]:
        """``str`` of each of ``coeffs``, without building the Fractions."""
        den = self.den
        out = []
        for c in self.nums:
            g = math.gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return out

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.nums[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction | None:
        return Fraction(self.nums[0], self.den) if self.conductor == 1 else None

    def as_integer(self) -> int:
        if self.conductor != 1 or self.den != 1:
            raise ValueError(f"{self!r} is not an integer")
        return self.nums[0]

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

    def _at(self, L: int) -> Sequence[int]:
        """The numerators at conductor L, a multiple of the conductor."""
        n = self.conductor
        return self.nums if L == n else _substitute(L, self.nums, L // n)

    def _scaled(self, a: int, b: int) -> "Cyclotomic":
        """The value times a / b, for nonzero integers a and b."""
        return Cyclotomic._normal(self.conductor, self.den * b, [c * a for c in self.nums])

    def __add__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = (self, o) if self.conductor >= o.conductor else (o, self)
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        if b.conductor == 1:
            # adding a rational keeps the conductor
            nums = [c * sa for c in a.nums]
            nums[0] += b.nums[0] * sb
            return Cyclotomic._normal(a.conductor, den, nums)
        L = math.lcm(a.conductor, b.conductor)
        return _canonical(L, den, [x * sa + y * sb for x, y in zip(a._at(L), b._at(L))])

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._normal(self.conductor, self.den, [-c for c in self.nums])

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
            return self._scaled(o.nums[0], o.den) if o.nums[0] else ZERO
        if self.conductor == 1:
            return o * self
        L = math.lcm(self.conductor, o.conductor)
        va, vb = self._at(L), o._at(L)
        nonzero = [(j, b) for j, b in enumerate(vb) if b]
        conv = [0] * (2 * len(va) - 1)
        for i, a in enumerate(va):
            if a:
                for j, b in nonzero:
                    conv[i + j] += a * b
        return _canonical(L, self.den * o.den, _reduce(L, conv))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor != 1:
            raise TypeError("division is only supported by rational values")
        if o.nums[0] == 0:
            raise ZeroDivisionError("division by zero")
        return self._scaled(o.den, o.nums[0])

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
        return Cyclotomic._normal(n, self.den, _substitute(n, self.nums, r))

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    def abs_squared(self) -> "Cyclotomic":
        return self * self.galois(-1)

    # -- output --------------------------------------------------------------

    def approx(self) -> complex:
        n, den = self.conductor, self.den
        if n == 1:
            return complex(self.nums[0] / den)
        return sum(
            complex(c / den) * cmath.exp(2j * cmath.pi * j / n)
            for j, c in enumerate(self.nums)
            if c
        )

    def sort_key(self):
        """Orders as (conductor, coeffs); an integral value keys by its
        numerators, which compare with Fractions by value, so no Fraction is built."""
        return (self.conductor, self.nums if self.den == 1 else self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return self.conductor == other.conductor and self.den == other.den and self.nums == other.nums
        if type(other) is int:
            return self.conductor == 1 and self.den == 1 and self.nums[0] == other
        o = self._coerce(other)
        return NotImplemented if o is None else self == o

    def __hash__(self) -> int:
        if self.conductor == 1:
            # equal to the hash of the int or Fraction of equal value
            return hash(self.nums[0]) if self.den == 1 else hash(self.rational_value())
        return hash((self.conductor, self.den, self.nums))

    def __repr__(self) -> str:
        return f"Cyclotomic[{pretty(self)}]"

    def to_json_dict(self) -> dict:
        return {"conductor": self.conductor, "coeffs": self.coeff_texts()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cyclotomic":
        return cls(int(data["conductor"]), [Fraction(s) for s in data["coeffs"]])


ZERO = Cyclotomic._normal(1, 1, (0,))
ONE = Cyclotomic._normal(1, 1, (1,))


def from_root(k: int, n: int) -> Cyclotomic:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return _canonical(n, 1, _accumulate_integers(n, ((k, 1),)))


def from_root_combination(n: int, coeff_by_exponent: dict[int, Rational]) -> Cyclotomic:
    """sum of c_k * zeta_n^k for the given exponent -> coefficient mapping."""
    terms = [(k, c) for k, c in coeff_by_exponent.items() if c]
    den = math.lcm(*(c.denominator for _, c in terms))
    return _canonical(
        n, den, _accumulate_integers(n, ((k, c.numerator * (den // c.denominator)) for k, c in terms))
    )


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
    if v.conductor == 1:
        return v.coeff_texts()[0]
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
