"""Exact ordinary character tables, by the route G's class-set construction
names (permcore's ``rows``): route 3 under cycle types, else the first of
routes 1, 2 and 4 that applies.

1. Orbit product: G is the direct product of the groups its generators
   induce on their r >= 2 nontrivial orbits (permcore's ``_orbit_factors``).
2. Cyclic: some class has element order |G|, so its rep x generates G, and
   chi_j(x^t) = zeta_|G|^(jt) for j < |G| (``_cyclic_rows``).
3. Symmetric: G is the symmetric group on the points it moves; rows by the
   Murnaghan-Nakayama rule on cycle types (``_symmetric_rows``).
4. Dixon-Schneider, for every other group.

Every route shares each distinct value object among its rows, so the
sort and the certificate work once per value object.

Dixon-Schneider diagonalizes the class multiplication matrices
simultaneously over GF(p), p the smallest prime = 1 mod exp(G) with
p^2 > 4|G|, and w of order exp(G) mod p: the ``_prime_and_root`` the
certificate below also uses.  Central characters are read off the
one-dimensional common eigenspaces.  As |G| < p^2/4, a degree is the one
divisor d of |G| with d^2 <= |G| and d^2 = |G|/s mod p, s the
orthogonality sum.  Values are lifted to Q(zeta_exp(G)) by counting
root-of-unity multiplicities along each class's power column (the classes
of rep**t, t < o(rep)).  Another w gives the Galois conjugate rows, and
Irr(G) is Galois-stable, so the sorted table does not depend on w.

The GF(p) stages follow Schneider ("Dixon's character table algorithm
revisited", J. Symb. Comput. 9, 1990) in building, on demand, only the
class matrix rows a split reads: those at the pivots of unsplit spaces.
Row j of class matrix i, the a_ij^l of C_i * C_j = sum of a_ij^l * C_l, is
one pass over C_i by triple counting (``_class_matrix_row``).  A class
matrix that acts on a space as a scalar splits nothing, and the space is
kept as it is; else the characteristic polynomial of the restriction is
taken in O(d^3) through Hessenberg form (``_charpoly_mod``).  A space is a
basis that is the identity at its pivot columns, and one elimination per
eigenvalue gives each eigenspace as such a basis (``_split_eigenspaces``).

Under route 1, G's classes are the tuples of classes of the factors G_i
and its irreducibles the products chi_1 x ... x chi_r (Isaacs, *Character
Theory of Finite Groups*, Thm 4.21), so its table is read off theirs.

Every table, whichever route built it, then passes an exact self-check of
degrees and row orthonormality (``_quick_check``): plain integer inner
products for rational rows, else Galois closure and one Gram matrix modulo
a prime above a norm bound (``_row_certificate``).

``inner_product`` and ``class_sum`` run on integer forms of the values
(``_integer_forms``): a rational sum is one plain integer sum, and an
irrational ``class_sum`` adds power-basis numerators per conductor and
canonicalizes once.  ``root_pair_counts``, the gamma tables' sum of
beta_chi chi, runs in GF(p) on an image of the table.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, partial
from itertools import product
from operator import attrgetter, mul
from typing import Sequence

from ._nt import divisors, euler_phi, factorize, is_prime, prime_factors
from .cyclotomic import (
    Cyclotomic,
    ZERO,
    _canonical,
    _reduce,
    _substitute,
    from_root,
    from_root_combination,
)
from .errors import InvariantError, MismatchedTablesError, TableComputationError
from .permcore import ConjugacyClassSet, Group, Permutation, _restrict


class ClassFunction:
    """Exact values indexed by the conjugacy classes of a fixed class set."""

    __slots__ = ("classes", "values", "_ints")

    def __init__(self, classes: ConjugacyClassSet, values: Sequence):
        known: dict = {}  # each distinct int or Fraction converted once
        vals = tuple(
            v if isinstance(v, Cyclotomic) else known.get(v) or known.setdefault(v, Cyclotomic.rational(v))
            for v in values
        )
        if len(vals) != len(classes):
            raise ValueError("one value per conjugacy class required")
        self.classes = classes
        self.values = vals
        self._ints = None

    def _integer_form(self) -> tuple[int, tuple, bool]:
        """``_integer_forms`` of the values, cached as values never change."""
        if self._ints is None:
            self._ints = _integer_forms(self.values)
        return self._ints

    def __getitem__(self, class_index: int) -> Cyclotomic:
        return self.values[class_index]

    def __len__(self) -> int:
        return len(self.values)

    def value_at(self, x: Permutation) -> Cyclotomic:
        return self.values[self.classes.position_of(x)]

    def degree(self) -> Cyclotomic:
        """Value at the identity class (index 0 by the class ordering)."""
        return self.values[0]

    def adams(self, r: int) -> "ClassFunction":
        """psi^r: value at c becomes the value at the class of rep(c)**r."""
        pm = self.classes.power_map(r)
        return ClassFunction(self.classes, [self.values[j] for j in pm])

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_same(other)
        return ClassFunction(self.classes, [a + b for a, b in zip(self.values, other.values)])

    def __mul__(self, scalar) -> "ClassFunction":
        return ClassFunction(self.classes, [v * scalar for v in self.values])

    __rmul__ = __mul__

    def _check_same(self, other: "ClassFunction") -> None:
        if self.classes is not other.classes and self.classes.classes != other.classes.classes:
            raise MismatchedTablesError("class functions over different class sets")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.classes.classes == other.classes.classes and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self) -> str:
        return f"ClassFunction{list(self.values)!r}"


def _integer_forms(values: Sequence[Cyclotomic]) -> tuple[int, tuple, bool]:
    """(D, forms, rational) with D the lcm of the values' denominators, one
    form per value v: the int D*v when v is rational, else
    (conductor, ((j, c), ...)) with D*v = sum of c * zeta^j over the nonzero
    power-basis numerators; rational says whether every form is an int.
    Tables share value objects, so an irrational form is built once per
    distinct object."""
    den = math.lcm(*(v.den for v in values))
    forms = []
    irrational: dict[int, tuple] = {}
    for v in values:
        if v.conductor == 1:
            forms.append(v.nums[0] * (den // v.den))
            continue
        form = irrational.get(id(v))
        if form is None:
            s = den // v.den
            terms = tuple((j, c * s) for j, c in enumerate(v.nums) if c)
            form = irrational[id(v)] = (v.conductor, terms)
        forms.append(form)
    return den, tuple(forms), not irrational


def _dot(terms, den: int) -> Cyclotomic:
    """(1/den) * sum of w * a * conj(b) over (int w, integer form a, integer
    form b) triples, exact, in integers.

    Rational products add up as plain ints.  Irrational ones, as powers of
    zeta_L (L the lcm of the conductors, conj(zeta^j) = zeta^-j), go
    unreduced into one buffer per L; the buffers and the rational part are
    lifted to the lcm of their conductors, reduced once and made canonical.
    """
    rat = 0
    bufs: dict[int, list[int]] = {}
    for w, a, b in terms:
        if not (w and a and b):
            continue
        if type(a) is int:
            if type(b) is int:
                rat += w * a * b
                continue
            (L, tb), ta = b, ((0, a),)
        elif type(b) is int:
            (L, ta), tb = a, ((0, b),)
        else:
            L = math.lcm(a[0], b[0])
            ta = [(i * (L // a[0]), x) for i, x in a[1]]
            tb = [(j * (L // b[0]), y) for j, y in b[1]]
        buf = bufs.get(L)
        if buf is None:
            buf = bufs[L] = [0] * L
        for i, x in ta:
            x *= w
            for j, y in tb:
                buf[(i - j) % L] += x * y
    n = math.lcm(*bufs)
    total = [0] * n
    total[0] = rat
    for L, buf in bufs.items():
        step = n // L
        for j, c in enumerate(buf):
            if c:
                total[j * step] += c
    return _canonical(n, den, _reduce(n, total))


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum over classes of |class| * f * conj(g), exact, on the
    integer forms of f and g: no Fraction is built.  Two rational rows sum
    as plain ints; any other pair goes through ``_dot``."""
    f._check_same(g)
    df, fv, f_rational = f._integer_form()
    dg, gv, g_rational = g._integer_form()
    sizes = map(attrgetter("size"), f.classes.classes)
    den = f.classes.group.order() * df * dg
    if f_rational and g_rational:
        return Cyclotomic._normal(1, den, (sum(map(mul, sizes, map(mul, fv, gv))),))
    return _dot(zip(sizes, fv, gv), den)


def class_sum(f: ClassFunction, weights: dict[int, int], den: int = 1) -> Cyclotomic:
    """(1/den) * sum of w * f(c) over the (class index c, int w) items of
    weights, exact, on the integer form of f: a plain int sum when f is
    rational, else reduced numerators add into one buffer per conductor,
    lifted to the lcm of the conductors and made canonical once."""
    d, forms, rational = f._integer_form()
    if rational:
        total = sum(map(mul, weights.values(), map(forms.__getitem__, weights)))
        return Cyclotomic._normal(1, den * d, (total,))
    rat = 0
    bufs: dict[int, list[int]] = {}
    for c, w in weights.items():
        form = forms[c]
        if type(form) is int:
            rat += w * form
            continue
        n, terms = form
        buf = bufs.get(n)
        if buf is None:
            buf = bufs[n] = [0] * euler_phi(n)
        for j, x in terms:
            buf[j] += w * x
    if not bufs:
        # the commonest case in reports: the weights miss every irrational value
        return Cyclotomic._normal(1, den * d, (rat,))
    if len(bufs) == 1:
        ((n, total),) = bufs.items()
    else:
        n = math.lcm(*bufs)
        total = [0] * euler_phi(n)
        for m, buf in bufs.items():
            for j, x in enumerate(_substitute(n, buf, n // m)):
                total[j] += x
    total[0] += rat
    return _canonical(n, den * d, total)


def root_pair_counts(table: CharacterTable, roots: Sequence[int], where: str) -> tuple[int, ...]:
    """gamma(c) = sum over the rows of beta_chi chi(c), where beta_chi =
    phi_chi conj(phi_chi) / (|C| chi(1)), phi_chi = sum of |a| chi(a) over
    the root classes a and conj(phi_chi) reads chi at their inverses: for R
    their union, the number of x in R with gx in R, g in c.  Summed in GF(p)
    under iota: zeta_n -> w^(e/n), e = exp(C), p the least prime = 1 mod e
    above |C| (``_prime_and_root``), on the table's image, built on first
    use.  Exact: p > |C| makes |C| chi(1) a unit, and gamma(c) is an integer
    in [0, |R|], |R| < p, so its residue is its value.  The residues must
    give gamma(1) = |R|, gamma(c) <= |R| and sum of |c| gamma(c) = |R|^2
    (summing over g counts R x R once); a failure, or a row with a
    denominator, raises InvariantError naming where."""
    if table._mod is None:
        e, n, irr = table.conductor, table.group.order(), table.irreducibles
        for i, chi in enumerate(irr):
            if (d := math.lcm(*(v.den for v in chi.values))) != 1:
                raise InvariantError(f"{where}: character {i} has denominator {d}")
        p, w = _prime_and_root(e, n)
        image = {i: _eval_poly_mod(v.nums[::-1], pow(w, e // v.conductor, p), p) for i, v in _value_objects(irr).items()}
        cols = list(zip(*([image[id(v)] for v in chi.values] for chi in irr)))
        table._mod = p, cols, [pow(n * d, -1, p) for d in table.degrees]
    p, cols, units = table._mod
    cs = table.classes
    sizes = [cs.classes[a].size for a in roots]
    phi = [sum(map(mul, sizes, x)) for x in zip(*map(cols.__getitem__, roots))]
    bar = [sum(map(mul, sizes, x)) for x in zip(*(cols[cs.power_columns[a][-1]] for a in roots))]
    betas = [a * b * u % p for a, b, u in zip(phi, bar, units)]
    gamma = tuple(sum(map(mul, betas, col)) % p for col in cols)
    r = sum(sizes)
    bad = 0 if gamma[0] != r else next((c for c, v in enumerate(gamma) if v > r), None)
    if bad is not None:
        raise InvariantError(f"{where}: gamma is {gamma[bad]} at class {bad}, |R| = {r}")
    if sum(cl.size * v for cl, v in zip(cs.classes, gamma)) != r * r:
        raise InvariantError(f"{where}: sum of |c| gamma(c) is not |R|^2 = {r * r}")
    return gamma


def _class_matrix_row(cs: ConjugacyClassSet, i: int, j: int) -> dict[int, int]:
    """Row j of class matrix i: {l: a_ij^l} for the nonzero a_ij^l of
    C_i * C_j = sum of a_ij^l * C_l, ascending in l.  Counting the triples
    x*y = z in C_i x C_j x C_l both ways gives |C_l| * a_ij^l = |C_j| *
    #{x in C_i : x * rep(j) in C_l}; a remainder raises TableComputationError."""
    classes = cs.classes
    size_j = classes[j].size
    row = {}
    for l, count in sorted(Counter(cs.product_classes(i, j)).items()):
        a, rem = divmod(size_j * count, classes[l].size)
        if rem:
            raise TableComputationError(
                f"class algebra: a_ij^l = {size_j * count}/{classes[l].size} is not "
                f"an integer at classes i={i}, j={j}, l={l} ({cs.group!r})"
            )
        row[l] = a
    return row


def class_mult_coeff(classes: ConjugacyClassSet, a: int, b: int, c: int) -> int:
    """Number of pairs (x, y) in class a x class b with x*y = rep(c): the
    structure constant a_ab^c, from row b of class matrix a, built once per
    class set and kept on it."""
    row = classes._cmc_rows.get((a, b))
    if row is None:
        row = classes._cmc_rows[a, b] = _class_matrix_row(classes, a, b)
    return row.get(c, 0)


class CharacterTable:
    """Exact character table of a finite permutation group."""

    __slots__ = ("group", "classes", "irreducibles", "conductor", "_by_values", "_mod")

    def __init__(self, group: Group, classes: ConjugacyClassSet, irreducibles):
        self.group = group
        self.classes = classes
        self.irreducibles = tuple(irreducibles)
        self.conductor = classes.exponent
        self._by_values = None  # value vector -> row index, built on first lookup
        self._mod = None  # (p, columns mod p, units) of ``root_pair_counts``

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(cf.degree().as_integer() for cf in self.irreducibles)

    def _row_index(self) -> dict:
        if self._by_values is None:
            self._by_values = {cf.values: i for i, cf in enumerate(self.irreducibles)}
        return self._by_values

    def index_of(self, cf: ClassFunction) -> int:
        """Index of an irreducible with the same value vector."""
        try:
            return self._row_index()[cf.values]
        except KeyError:
            raise ValueError("not an irreducible of this table") from None

    def trivial_index(self) -> int:
        one = tuple(Cyclotomic.rational(1) for _ in range(len(self.classes)))
        return self._row_index()[one]

    def to_json_dict(self) -> dict:
        exp = self.classes.exponent
        return {
            "order": self.group.order(),
            "exponent": exp,
            "classes": [
                {"index": i, "rep": cl.rep.cycle_string(), "size": cl.size, "order": cl.order}
                for i, cl in enumerate(self.classes.classes)
            ],
            "power_maps": {str(m): list(self.classes.power_map(m)) for m in divisors(exp)},
            "irreducibles": [
                [v.to_json_dict() for v in cf.values] for cf in self.irreducibles
            ],
        }

    def __repr__(self) -> str:
        return f"CharacterTable[{self.group!r} degrees={self.degrees}]"


def class_position(table: CharacterTable, x: Permutation) -> int:
    return table.classes.position_of(x)


def power_map(table: CharacterTable, m: int) -> tuple[int, ...]:
    return table.classes.power_map(m)


# ---------------------------------------------------------------------------
# GF(p) linear algebra


def _charpoly_mod(a: list[list[int]], p: int) -> list[int]:
    """det(xI - A) mod p in O(n^3), by reduction to Hessenberg form.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.2.9.
    A copy H of A is brought to upper Hessenberg form (h_ij = 0 for
    i > j + 1) by similarity transforms: per column m - 1, a pivot swap into
    row m, then row i > m loses u_i = h_{i,m-1} / h_{m,m-1} times row m while
    column m gains u_i times column i.  The characteristic polynomials p_m
    of the leading m x m blocks of H then satisfy p_0 = 1 and

        p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im (prod_{j=i+1..m} h_{j,j-1}) p_i,

    where a zero subdiagonal entry ends the sum.  Coefficients are returned
    in descending degree order (monic first); ``a`` is not modified.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], -1, p)
        pivot_row = h[m]
        updates = []
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], pivot_row)]
                updates.append((i, u))
        if updates:
            for row in h:
                row[m] = (row[m] + sum(u * row[i] for i, u in updates)) % p
    # polys[m]: characteristic polynomial of the leading m x m block, ascending
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        new = [0] + prev
        hmm = h[m][m]
        for c, x in enumerate(prev):
            new[c] -= hmm * x
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = h[i][m] * t % p
            if f:
                for c, x in enumerate(polys[i]):
                    new[c] -= f * x
        polys.append([x % p for x in new])
    return polys[n][::-1]


def _eval_poly_mod(poly: list[int], x: int, p: int) -> int:
    acc = 0
    for c in poly:
        acc = (acc * x + c) % p
    return acc


def _nullspace_mod(mat: list[list[int]], p: int) -> list[tuple[int, list[int]]]:
    """The null space {v : mat * v = 0} over GF(p), as one pair (c, v) per
    free column c of mat's reduced row echelon form, with v[c] = 1 and v 0
    at the other free columns.  mat is brought to that form in place."""
    width = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and (f := mat[i][col]):
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    out = []
    for c in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[c] = 1
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[c] % p
        out.append((c, vec))
    return out


# ---------------------------------------------------------------------------
# Dixon-Schneider


@lru_cache(maxsize=None)
def _prime_and_root(e: int, bound: int) -> tuple[int, int]:
    """(p, w): the least prime p = 1 mod e with p > bound, and the first
    power w = a^((p-1)/e), a = 1, 2, ..., of order e mod p (``_has_order``),
    so p - 1 is not factored."""
    p = bound + 1 + (-bound) % e
    while not is_prime(p):
        p += e
    a = 1
    while not _has_order(w := pow(a, (p - 1) // e, p), e, p):
        a += 1
    return p, w


def _has_order(x: int, n: int, m: int) -> bool:
    """Whether x has multiplicative order n mod m: x^n = 1 and x^(n/q) != 1
    for each prime q | n."""
    return pow(x, n, m) == 1 and all(pow(x, n // q, m) != 1 for q in prime_factors(n))


def _split_eigenspaces(spaces: list[tuple], mat_rows: dict[int, dict[int, int]], p: int) -> list[tuple]:
    """Split each space, a pair (rows, pivots) of a basis and columns with
    rows[r][pivots[s]] = [r == s], into the eigenspaces of a class matrix M,
    given by its rows at the pivots of the spaces of dimension above 1.  A
    null vector of restricted - lam*I is 1 at its free column c and 0 at the
    other free columns (``_nullspace_mod``), so the eigenspace's basis, read
    back in GF(p)^k, is of the same kind with pivots sp_pivots[c]."""
    out = []
    for space in spaces:
        sp_rows, sp_pivots = space
        d = len(sp_rows)
        if d == 1:
            out.append(space)
            continue
        # matrix of the action restricted to the subspace, in the basis's
        # coordinates (the space is M-invariant, so the pivot entries of M*s
        # determine M*s)
        restricted = [
            [sum(x * s[c] for c, x in mat_rows[r].items()) % p for s in sp_rows]
            for r in sp_pivots
        ]
        lam = restricted[0][0]
        if all(x == lam * (r == c) for r, row in enumerate(restricted) for c, x in enumerate(row)):
            # M is scalar on the space: it splits nothing
            out.append(space)
            continue
        poly = _charpoly_mod(restricted, p)
        roots = [lam for lam in range(p) if _eval_poly_mod(poly, lam, p) == 0]
        covered = 0
        for lam in roots:
            shifted = [[(x - lam * (r == c)) % p for c, x in enumerate(row)] for r, row in enumerate(restricted)]
            rows, pivots = [], []
            for c, vec in _nullspace_mod(shifted, p):
                acc = [0] * len(sp_rows[0])
                for coef, srow in zip(vec, sp_rows):
                    if coef:
                        acc = [a + coef * x for a, x in zip(acc, srow)]
                rows.append([a % p for a in acc])
                pivots.append(sp_pivots[c])
            out.append((rows, pivots))
            covered += len(rows)
        if covered != d:
            raise TableComputationError("eigenspace splitting failed (non-split matrix)")
    return out


def character_table(G: Group) -> CharacterTable:
    """Exact character table of G (cached on the group object), its rows
    by the route G's construction names (``rows``), sorted and
    self-checked whichever route ran."""
    if G._chartab is not None:
        return G._chartab
    cs = G.conjugacy_classes()
    rows = cs.construction.rows(cs)
    rows.sort(key=partial(_row_key, keys={i: v.sort_key() for i, v in _value_objects(rows).items()}))
    table = CharacterTable(G, cs, rows)
    _quick_check(table)
    G._chartab = table
    return table


def _row_key(cf: ClassFunction, keys: dict | None = None):
    """Rows sort by degree, then by their values' sort keys; keys, if given,
    holds them by the id of each value object."""
    if keys is None:
        keys = {id(v): v.sort_key() for v in cf.values}
    return cf.degree().as_integer(), list(map(keys.__getitem__, map(id, cf.values)))


def _value_objects(rows: Sequence[ClassFunction]) -> dict:
    """Each distinct value object of the rows by id, in order of first
    appearance (tables share value objects, so they are few)."""
    objects: dict = {}
    for row in rows:
        objects.update(zip(map(id, row.values), row.values))
    return objects


def _cyclic_rows(cs: ConjugacyClassSet, c: int) -> list[ClassFunction]:
    """The irreducibles of a cyclic group of order n generated by the rep x
    of class c (of order n): chi_j(x^t) = zeta_n^(jt) for j < n, read along
    c's power column, where class column[t] holds x^t."""
    column = cs.power_columns[c]
    n = len(column)
    roots = [from_root(a, n) for a in range(n)]
    exponent_at = [0] * n
    for t, cls in enumerate(column):
        exponent_at[cls] = t
    return [ClassFunction(cs, [roots[j * t % n] for t in exponent_at]) for j in range(n)]


def _symmetric_rows(cs: ConjugacyClassSet, types: Sequence[tuple[int, ...]]) -> list[ClassFunction]:
    """The irreducibles chi_lambda of Sym(k points), lambda a partition of
    k, at each class's cycle type mu on those points (types, in class
    order), by the Murnaghan-Nakayama rule (James & Kerber, *The
    Representation Theory of the Symmetric Group*, 1981, 2.4): chi_lambda(mu)
    is the sum over the mu_1-rim hooks h of lambda of (-1)^(leg length of h) *
    chi_(lambda - h)(mu_2, ...).  lambda is coded by its beta-set with k
    beads, {lambda_i + k - i}, as a bitmask; removing an r-rim hook moves a
    bead from b to an empty b - r, and its leg length is the number of beads
    strictly between.  Values are memoized on (beta-set, remaining parts of
    mu) within this call."""
    memo: dict = {}

    def chi(mask: int, mu: tuple[int, ...]) -> int:
        if not mu:
            return 1
        key = (mask, mu)
        value = memo.get(key)
        if value is None:
            r, rest = mu[0], mu[1:]
            value = 0
            for b in range(r, mask.bit_length()):
                if mask >> b & 1 and not mask >> (b - r) & 1:
                    leg = (mask >> (b - r + 1) & ((1 << (r - 1)) - 1)).bit_count()
                    term = chi(mask ^ (1 << b) ^ (1 << (b - r)), rest)
                    value += -term if leg & 1 else term
            memo[key] = value
        return value

    k = sum(types[0])
    rows = []
    for lam in types:  # each partition of k is the cycle type of one class
        mask = sum(1 << (part + k - i) for i, part in enumerate(lam, start=1))
        mask |= (1 << (k - len(lam))) - 1  # the beads of lambda's zero parts
        rows.append([chi(mask, mu) for mu in types])
    shared = {x: Cyclotomic.rational(x) for x in set().union(*rows)}
    return [ClassFunction(cs, [shared[x] for x in row]) for row in rows]


def _class_map(cs: ConjugacyClassSet, factors, tables) -> list[tuple[int, ...]]:
    """For each class of G, the class positions of its rep's restrictions
    in the factors' tables."""
    return [
        tuple(t.classes.position_of(_restrict(cl.rep, orbit)) for (orbit, _), t in zip(factors, tables))
        for cl in cs.classes
    ]


def _product_rows(G: Group, cs: ConjugacyClassSet, factors) -> list[ClassFunction]:
    """The rows chi_1 x ... x chi_r of G = G_1 x ... x G_r, from the
    factors' tables, over G's own classes.  The class map must be a
    bijection onto the tuples of factor classes that multiplies class sizes
    and takes the lcm of element orders, and the factor classes' reps, put
    back on their orbits, must make an element of class c again; else
    TableComputationError names the stage and the class."""
    tables = [character_table(H) for _, H in factors]
    coords = _class_map(cs, factors, tables)
    where = f"{G!r} as a product of {len(tables)} orbit groups"
    if len(cs) != math.prod(len(t.classes) for t in tables) or len(set(coords)) != len(cs):
        raise TableComputationError(f"product class map is not a bijection ({where})")
    for c, (cl, parts) in enumerate(zip(cs.classes, coords)):
        fcls = [t.classes.classes[j] for t, j in zip(tables, parts)]
        if cl.size != math.prod(f.size for f in fcls):
            raise TableComputationError(f"product class size mismatch ({where}, class {c})")
        if cl.order != math.lcm(*(f.order for f in fcls)):
            raise TableComputationError(f"product element order mismatch ({where}, class {c})")
        img = list(range(G.degree))
        for (orbit, _), f in zip(factors, fcls):
            for p, q in zip(orbit, f.rep.img):
                img[p] = orbit[q]
        if cs.position_of(Permutation._raw(tuple(img))) != c:
            raise TableComputationError(f"product class position mismatch ({where}, class {c})")
    # by the factors' ids: table values or products, kept alive by the tables and this dict
    products: dict[tuple[int, int], Cyclotomic] = {}

    def times(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
        v = products.get((id(a), id(b)))
        if v is None:
            v = products[id(a), id(b)] = a * b
        return v

    rows = []
    for chis in product(*(t.irreducibles for t in tables)):
        columns = [chi.values for chi in chis]
        values = []
        for parts in coords:
            v = columns[0][parts[0]]
            for col, j in zip(columns[1:], parts[1:]):
                v = times(v, col[j])
            values.append(v)
        rows.append(ClassFunction(cs, values))
    return rows


def _dixon_schneider_rows(G: Group, cs: ConjugacyClassSet) -> list[ClassFunction]:
    """The irreducible characters of G, unsorted, by Dixon-Schneider in the
    GF(p) of ``_prime_and_root``, with degrees read off the divisors of |G|."""
    n = G.order()
    k = len(cs)
    e = cs.exponent
    p, w = _prime_and_root(e, math.isqrt(4 * n))

    # split GF(p)^k into common eigenspaces of the class matrices
    identity_rows = [[int(i == j) for j in range(k)] for i in range(k)]
    spaces = [(identity_rows, list(range(k)))]
    for ci in range(1, k):
        # the rows of class matrix ci that the unsplit spaces read
        needed = {r for rows, pivots in spaces if len(rows) > 1 for r in pivots}
        if not needed:
            break
        mat_rows = {j: _class_matrix_row(cs, ci, j) for j in needed}
        spaces = _split_eigenspaces(spaces, mat_rows, p)
    if any(len(rows) != 1 for rows, _ in spaces):
        raise TableComputationError("class matrices did not split the group algebra")

    inv_map = cs.inverse_map()
    sizes = [cl.size for cl in cs.classes]
    inv_sizes = [pow(size, -1, p) for size in sizes]
    # multiplicity lift, taken once per table: for each element order o the
    # matrix of zeta_o^(-i*t) / o mod p, applied to the values along each
    # class's power column (class of rep**t, t < order)
    lift = {}
    for o in {cl.order for cl in cs.classes}:
        zeta = pow(w, e // o, p)
        inv_o = pow(o, -1, p)
        zpow = [pow(zeta, a, p) * inv_o % p for a in range(o)]
        lift[o] = [[zpow[-i * t % o] for t in range(o)] for i in range(o)]

    # the lift of a GF(p) column, keyed by the column itself: its length is
    # the element order and its first entry the degree, so the key fixes
    # every input of the lift and its checks.  Galois conjugate, linear and
    # trivial rows repeat columns.
    lifted: dict[tuple[int, ...], Cyclotomic] = {}
    rows = []
    for r, (basis, _) in enumerate(spaces):
        where = f"{G!r}, eigenspace {r}"
        vec = basis[0]
        if vec[0] == 0:
            raise TableComputationError(f"degenerate central character ({where})")
        norm = pow(vec[0], -1, p)
        omega = [x * norm % p for x in vec]
        s = sum(omega[j] * omega[inv_map[j]] * inv_sizes[j] for j in range(k)) % p
        # deg^2 = |G|/s; s = 0 leaves d2 = 0, which no divisor fits
        d2 = n * pow(s, -1, p) % p if s else 0
        deg = next((d for d in divisors(n) if d * d <= n and d * d % p == d2), None)
        if deg is None:
            raise TableComputationError(
                f"degree recovery failed ({where}): no divisor of {n} squares to {d2} mod {p}"
            )
        chihat = [deg * omega[j] * inv_sizes[j] % p for j in range(k)]
        values = []
        for j, column in enumerate(cs.power_columns):
            col = tuple(chihat[c] for c in column)
            value = lifted.get(col)
            if value is None:
                mults = {}
                for i, zrow in enumerate(lift[len(col)]):
                    m_i = sum(c * z for c, z in zip(col, zrow)) % p
                    if m_i:
                        if m_i > deg:
                            raise TableComputationError(
                                f"multiplicity lift out of range ({where}, class {j})"
                            )
                        mults[i] = m_i
                if sum(mults.values()) != deg:
                    raise TableComputationError(
                        f"multiplicity lift inconsistent ({where}, class {j})"
                    )
                value = lifted[col] = from_root_combination(len(col), mults)
            values.append(value)
        rows.append(ClassFunction(cs, values))
    return rows


def _quick_check(table: CharacterTable) -> None:
    """The degrees squared sum to |G| and the rows are orthonormal: by the
    k(k+1)/2 inner products for rational rows, else ``_row_certificate``.
    A failure raises TableComputationError."""
    n = table.group.order()
    degs = table.degrees
    if sum(d * d for d in degs) != n:
        raise TableComputationError(f"degree sum check failed for {table.group!r}")
    irr = table.irreducibles
    if not all(chi._integer_form()[2] for chi in irr):
        _row_certificate(table)
        return
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            ip = inner_product(irr[i], irr[j])
            if ip != (1 if i == j else 0):
                raise TableComputationError(
                    f"row orthogonality check failed for {table.group!r}: "
                    f"<chi_{i}, chi_{j}> = {ip!r}"
                )


@lru_cache(maxsize=None)
def _unit_generators(e: int) -> tuple[int, ...]:
    """Generators of (Z/e)^x in [2, e): for each prime power q^a || e the
    generators of (Z/q^a)^x (for odd q the least g of order phi(q^a) mod
    q^a, by ``_has_order``; -1 and 5 for q = 2), each lifted by CRT to 1 mod
    e/q^a."""
    gens = []
    for q, a in factorize(e):
        qa = q**a
        rest = e // qa
        if q == 2:
            local = (-1, 5)[: min(a - 1, 2)]
        else:
            local = (next(g for g in range(2, qa) if _has_order(g, euler_phi(qa), qa)),)
        for g in local:
            r = (1 + rest * ((g - 1) * pow(rest, -1, qa) % qa)) % e
            if r != 1:
                gens.append(r)
    return tuple(gens)


def _gram_rows(vals: list[list[int]], sizes: list[int], p: int):
    """Row i of the upper triangle of the Gram matrix mod p: the sums over
    classes c of |C_c| * vals[i][c] * vals[l][c], for l = i, ..., k - 1."""
    for i, row in enumerate(vals):
        left = list(map(mul, sizes, row))
        yield [sum(map(mul, left, right)) % p for right in vals[i:]]


def _row_certificate(table: CharacterTable) -> None:
    """Prove sum_c |C_c| chi_i(c) conj(chi_j(c)) = |G| delta_ij exactly, for
    a table with irrational rows, by one Gram matrix mod a prime p.

    With e = exp(G) and k the class count:
    1. every value is an algebraic integer of Q(zeta_e): its ``den`` is 1
       and its conductor divides e;
    2. the rows are distinct, and for r = -1 and each generator r of
       (Z/e)^x (``_unit_generators``) the value-wise image sigma_r(chi_i) of
       every row is a row; r = -1 gives the conjugate row conj(i);
    3. B = sum_c |C_c| M_c^2 + |G|, where M_c is the largest l1 norm of the
       power-basis numerators in column c, bounds every complex embedding
       of alpha_il = sum_c |C_c| chi_i(c) chi_l(c) - |G| [l = conj(i)],
       since a value's numerators bound its absolute value;
    4. p is the least prime = 1 mod e above B and w has order e mod p, so
       iota: zeta_n -> w^(e/n) is a ring map Z[zeta_e] -> GF(p), whose
       kernel P is a prime above p (``_prime_and_root``);
    5. iota(alpha_il) = 0 mod p for all i <= l (``_gram_rows``); the Gram
       matrix is symmetric and conj an involution, so that is every pair.

    Why this is exact: closure makes the Galois group permute the rows, so
    tau(alpha_il) = alpha_{tau i, tau l} lies in P for every tau, that is
    alpha_il lies in every prime above p.  As p does not divide e it is
    unramified, so alpha_il is in p Z[zeta_e].  A nonzero alpha_il would
    then have |N(alpha_il)| >= p^phi(e) > B^phi(e) >= |N(alpha_il)|; hence
    alpha_il = 0.  Since conj(chi_l) = chi_conj(l), these are the
    orthonormality relations.  The certificate is a proof, not a
    probabilistic test, and the bound reads the stored values, so it does
    not presume the rows are characters.  Every failure raises
    TableComputationError, also under ``python -O``.
    """
    G, cs = table.group, table.classes
    e, n, k = cs.exponent, G.order(), len(cs)
    fail = f"row orthogonality check failed for {G!r}:"
    # step 1, once per distinct value object, in order of first appearance;
    # equal values share a code, and each row is coded as value codes
    irr = table.irreducibles
    rep_id: dict = {}  # each distinct value -> its code
    code: dict = {}  # id of a value object -> its value's code
    for key, v in _value_objects(irr).items():
        if v.den != 1:  # the first fraction, so in the first row holding one
            i = next(i for i, chi in enumerate(irr) if v in chi.values)
            d = math.lcm(*(w.den for w in irr[i].values))
            raise TableComputationError(f"{fail} character {i} has a value with denominator {d}")
        code[key] = rep_id.setdefault(v, len(rep_id))
    reps = list(rep_id)
    for v in reps:
        if e % v.conductor:
            raise TableComputationError(f"{fail} value {v!r} is not in Q(zeta_{e})")
    coded = [tuple(map(code.__getitem__, map(id, chi.values))) for chi in irr]

    # step 2
    index = {row: i for i, row in enumerate(coded)}
    if len(index) != k:
        raise TableComputationError(f"{fail} two rows are equal")
    for r in (-1, *(r for r in _unit_generators(e) if r != e - 1)):
        image = [rep_id.get(v.galois(r)) for v in reps]
        perm = [index.get(tuple(map(image.__getitem__, row))) for row in coded]
        if None in perm:
            raise TableComputationError(
                f"{fail} sigma_{r} of character {perm.index(None)} is not a row"
            )
        if r == -1:
            conj = perm

    # step 3
    norms = [sum(map(abs, v.nums)) for v in reps]
    sizes = [cl.size for cl in cs.classes]
    bound = n + sum(
        size * max(map(norms.__getitem__, col)) ** 2 for size, col in zip(sizes, zip(*coded))
    )

    # step 4
    p, w = _prime_and_root(e, bound)
    iota = [_eval_poly_mod(v.nums[::-1], pow(w, e // v.conductor, p), p) for v in reps]

    # step 5
    vals = [list(map(iota.__getitem__, row)) for row in coded]
    for i, got in enumerate(_gram_rows(vals, sizes, p)):
        want = [0] * (k - i)
        if conj[i] >= i:
            want[conj[i] - i] = n % p
        if got != want:
            l = next(l for l, (a, b) in enumerate(zip(got, want)) if a != b)
            raise TableComputationError(
                f"{fail} Gram entry ({i}, {i + l}) is {got[l]} mod {p}, expected {want[l]}"
            )


def verify_class_algebra(table: CharacterTable) -> None:
    """Exact oracle check that the table diagonalizes the class algebra.

    Together with orthonormality and positive integral degrees (checked at
    construction time) this pins the character table uniquely, because the
    common eigenspaces of the class multiplication matrices are
    one-dimensional.  Raises TableComputationError on any failure.
    """
    cs = table.classes
    k = len(cs)
    sizes = [cl.size for cl in cs.classes]
    omegas = [
        [cf.values[j] * sizes[j] / cf.degree() for j in range(k)] for cf in table.irreducibles
    ]
    for i in range(1, k):
        for j in range(k):
            row = _class_matrix_row(cs, i, j)
            for omega in omegas:
                lhs = ZERO
                for l, a in row.items():
                    lhs = lhs + omega[l] * a
                if lhs != omega[i] * omega[j]:
                    raise TableComputationError(
                        f"class algebra eigenvector check failed at classes {i},{j}"
                    )


def verify_column_orthogonality(table: CharacterTable) -> None:
    cs = table.classes
    k = len(cs)
    for a in range(k):
        for b in range(k):
            total = ZERO
            for cf in table.irreducibles:
                total = total + cf.values[a] * cf.values[b].galois(-1)
            want = table.group.order() // cs.classes[a].size if a == b else 0
            if total != want:
                raise TableComputationError("column orthogonality check failed")
