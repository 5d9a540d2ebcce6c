"""Small exact number-theory helpers shared across the package.

Everything here works on plain Python integers; nothing is probabilistic.
Every helper has a caller in another module of the package.  A modular
inverse is Python's own ``pow(x, -1, m)``, and the one GF(p) that character
tables work in, a prime p = 1 mod e with an element of order e, comes from
``chartab._prime_and_root``.
"""
from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


# the first 13 primes; no odd composite below _SPRP_LIMIT is a strong
# probable prime to all of them (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86, 2017)
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: Miller-Rabin to the first 13 prime bases below
    _SPRP_LIMIT, where it is proven deterministic, and ``factorize`` above."""
    if n < 2:
        return False
    for q in _SPRP_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= _SPRP_LIMIT:
        f = factorize(n)
        return len(f) == 1 and f[0][1] == 1
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor d of n > 0 with n/d a perfect square."""
    out = 1
    for p, e in factorize(n):
        if e % 2:
            out *= p
    return out
