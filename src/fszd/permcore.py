"""Finite permutation group engine.

Groups act on the points {1..n}; internally images are stored 0-based.
Composition is right-to-left: ``(a * b)(i) = a(b(i))``, and conjugation is
``t.conj(x) = t * x * t^-1``.

Order and membership go through a deterministic incremental Schreier-Sims
stabilizer chain, so they never require full enumeration.  Each group has one
class-set construction (``_pick_construction``): the class walk (``_Walk``)
for any group, or cycle types (``_Symmetric``) for the full symmetric group
on the points it moves.  It builds the conjugacy classes, up to a bound on
|G| (``FSZD_MAX_ORDER`` overrides it), and answers ``position_of``,
centralizers and conjugators.  The walk's index (``_walk``) is the one store
of G's elements: each packed element is a key once, its value coding its
class and the Schreier edge that reached it (see ``_conjugation_orbit``).
It backs ``members``, ``product_classes``, ``Group.elements()`` and the
walk's transversals; under another construction the walk runs on the first
call that needs it.  Each class has a power column (the classes of rep**t,
t < o(rep)) that answers every power question.

The element-level loops run on packed images, not ``Permutation`` objects.
Up to 256 points an element is ``bytes(img)`` and ``t * x`` is
``x.translate(t + pad)``, ``pad`` extending t's image by the identity to all
256 byte values: the product runs in C, and the packed element hashes once
and sorts as its image tuple.  Above 256 points an element is its image
tuple and ``t * x`` is ``tuple(map(t.__getitem__, x))`` with an empty
``pad``; the degree alone picks the packing (``_packing``).  ``Permutation``
objects are made only at the boundary: class representatives, centralizer
generators, conjugators, ``Group.elements()`` and the arguments and residues
of the chain's ``extend``, ``strip`` and ``contains``.
"""
from __future__ import annotations

import math
import os
import re
from collections import Counter
from itertools import accumulate, chain, combinations, repeat
from typing import Iterable, Iterator, Optional, Sequence

from ._nt import divisors
from .errors import BadDivisorError, ConfigError, DegreeLimitError, InvariantError, NotInGroupError
from .errors import ResourceLimitError, SpecParseError

DEFAULT_MAX_DEGREE = 64
DEFAULT_ENUM_LIMIT = 10_000_000


def env_max_order(default: int) -> int:
    """The FSZD_MAX_ORDER override if set (a positive integer), else default."""
    env = os.environ.get("FSZD_MAX_ORDER")
    if env is None:
        return default
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"FSZD_MAX_ORDER must be a positive integer, got {env!r}")
    return value


class Permutation:
    """An immutable permutation of {1..n}, stored as a 0-based image tuple."""

    __slots__ = ("img",)

    def __init__(self, images: Sequence[int]):
        img = tuple(images)
        n = len(img)
        seen = [False] * n
        for i in img:
            if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                raise ValueError(f"not a bijection of 0..{n - 1}: {img}")
            seen[i] = True
        self.img = img

    @classmethod
    def _raw(cls, img: tuple[int, ...]) -> "Permutation":
        # internal fast path: img is trusted to be a valid image tuple
        p = object.__new__(cls)
        p.img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles given with 1-based points."""
        img = list(range(degree))
        hit = set()
        for cyc in cycles:
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                if not 1 <= a <= degree:
                    raise ValueError(f"point {a} outside 1..{degree}")
                if a in hit:
                    raise ValueError(f"point {a} repeated in cycle notation")
                hit.add(a)
                img[a - 1] = b - 1
        return cls(img)

    @property
    def degree(self) -> int:
        return len(self.img)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.img))

    def __mul__(self, other: "Permutation") -> "Permutation":
        a = self.img
        if len(a) != len(other.img):
            raise ValueError("degree mismatch in permutation product")
        return Permutation._raw(tuple(a[j] for j in other.img))

    def inverse(self) -> "Permutation":
        img = self.img
        out = [0] * len(img)
        for i, j in enumerate(img):
            out[j] = i
        return Permutation._raw(tuple(out))

    def __pow__(self, k: int) -> "Permutation":
        n = len(self.img)
        out = [0] * n
        for cyc in self._cycles0(fixpoints=True):
            ln = len(cyc)
            s = k % ln
            for i, pt in enumerate(cyc):
                out[pt] = cyc[(i + s) % ln]
        return Permutation._raw(tuple(out))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self._cycles0(fixpoints=True)))

    def conj(self, x: "Permutation") -> "Permutation":
        """Conjugate x by self: returns self * x * self^-1."""
        t, xi = self.img, x.img
        if len(t) != len(xi):
            raise ValueError("degree mismatch in conjugation")
        out = [0] * len(t)
        for i in range(len(t)):
            out[t[i]] = t[xi[i]]
        return Permutation._raw(tuple(out))

    def _cycles0(self, fixpoints: bool = False) -> list[tuple[int, ...]]:
        img = self.img
        seen = [False] * len(img)
        out = []
        for start in range(len(img)):
            if seen[start]:
                continue
            cur, cyc = start, []
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur)
                cur = img[cur]
            if fixpoints or len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles with 1-based points, each starting at its minimum."""
        return [tuple(p + 1 for p in c) for c in self._cycles0()]

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cyc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self) -> int:
        return hash(self.img)

    def __lt__(self, other: "Permutation") -> bool:
        return (len(self.img), self.img) < (len(other.img), other.img)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"


def element_power_order(p: Permutation, k: int) -> tuple[Permutation, int]:
    """Return (p**k, order of p); k may be negative or zero."""
    return p**k, p.order()


# ---------------------------------------------------------------------------
# Schreier-Sims stabilizer chain


class _Level:
    __slots__ = ("point", "gens", "verified", "orbit")

    def __init__(self, point: int, identity: tuple):
        self.point = point
        # the strong generators fixing the earlier base points, as padded
        # tables (g, g^-1), and per generator the number of orbit points, in
        # orbit order, whose Schreier generator with it sifts to 1
        self.gens: list[tuple] = []
        self.verified: list[int] = []
        # orbit point p -> (u, u^-1) with u(point) = p: u packed, u^-1 a padded table
        self.orbit: dict[int, tuple] = {point: identity}


class StabilizerChain:
    """Deterministic incremental Schreier-Sims chain, verified bottom-up with
    no randomness (Seress, *Permutation Group Algorithms*, 2003, 4.2).

    Strong generators and their inverses are padded tables, transversal
    elements are packed with padded-table inverses, so each product is one
    ``compose``; a transversal inverse is a product of stored inverses,
    (g * u)^-1 = u^-1 * g^-1.

    A new strong generator at level j extends the orbits of levels <= j,
    keeping their entries: it maps the old points, closed under the old
    generators, then all the level's generators map the points found.  Each
    level counts, per generator, the orbit points whose Schreier generator
    sifted to 1, so each pair is sifted once.  That is sound, as orbits keep
    their entries: a Schreier generator u_{g(p)}^-1 * g * u_p never changes
    once formed, and a sift that reached 1 through the deeper levels still
    does after they grow.
    """

    def __init__(self, generators: Sequence[Permutation], degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._pack, self._compose, self._pad = _packing(degree)
        self._one = self._pack(range(degree))
        for g in generators:
            self.extend(g)

    def extend(self, g: Permutation) -> bool:
        """Add g to the chain's group; False when g is already a member."""
        return self._extend(self._pack(g.img))

    def _extend(self, x) -> bool:
        residue, j = self._strip(x)
        if residue == self._one:
            return False
        self._add_at(residue, j)
        self._verify_all(j)
        return True

    def strip(self, g: Permutation, start: int = 0) -> tuple[Permutation, int]:
        residue, i = self._strip(self._pack(g.img), start)
        return _unpack(residue), i

    def _strip(self, x, start: int = 0) -> tuple:
        compose = self._compose
        i = start
        for level in self.levels[start:]:
            entry = level.orbit.get(x[level.point])
            if entry is None:
                return x, i
            x = compose(x, entry[1])  # u^-1 * x
            i += 1
        return x, i

    def contains(self, g: Permutation) -> bool:
        return self._strip(self._pack(g.img))[0] == self._one

    def order(self) -> int:
        out = 1
        for level in self.levels:
            out *= len(level.orbit)
        return out

    def _add_at(self, residue, j: int) -> None:
        if j == len(self.levels):
            base = min(p for p in range(self.degree) if residue[p] != p)
            self.levels.append(_Level(base, (self._one, self._one + self._pad)))
        # sorting the points by their images puts i at position residue[i]
        inverse = self._pack(sorted(range(self.degree), key=residue.__getitem__))
        new = (residue + self._pad, inverse + self._pad)
        compose = self._compose
        # the new generator belongs to every level <= j, so extend their orbits
        for level in self.levels[: j + 1]:
            level.gens.append(new)
            level.verified.append(0)
            orbit, found = level.orbit, []
            for gens, points in (([new], list(orbit)), (level.gens, found)):
                for p in points:  # found grows as it is read
                    u, u_inv = orbit[p]
                    for g, g_inv in gens:
                        q = g[p]
                        if q not in orbit:
                            # g * u, and its inverse u^-1 * g^-1 as a padded table
                            orbit[q] = (compose(u, g), compose(g_inv, u_inv))
                            found.append(q)

    def _verify_level(self, i: int) -> int | None:
        """Sift the Schreier generators of level i not yet sifted; on a
        failure, install the stripped residue at the level where sifting
        stopped and return it."""
        level = self.levels[i]
        orbit, verified = level.orbit, level.verified
        points = list(orbit)
        compose, one = self._compose, self._one
        for k, (g, _) in enumerate(level.gens):
            for x in range(verified[k], len(points)):
                p = points[x]
                s = compose(compose(orbit[p][0], g), orbit[g[p]][1])  # u_{g(p)}^-1 * g * u
                if s != one:
                    residue, j = self._strip(s, i + 1)
                    if residue != one:
                        verified[k] = x
                        self._add_at(residue, j)
                        return j
            verified[k] = len(points)
        return None

    def _verify_all(self, i: int) -> None:
        # Levels deeper than i are verified already; an addition at level j
        # gives levels <= j new pairs, so verification resumes there.
        while i >= 0:
            j = self._verify_level(i)
            i = i - 1 if j is None else j


# ---------------------------------------------------------------------------
# Packed elements


def _compose_tuples(x: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(t.__getitem__, x))


def _packing(degree: int):
    """``(pack, compose, pad)`` for elements of this degree.

    ``pack(img)`` is the packed element of an image tuple, and
    ``compose(x, t + pad)`` is the packed ``t * x`` for packed x and t.
    """
    if degree <= 256:
        return bytes, bytes.translate, bytes(range(degree, 256))
    return tuple, _compose_tuples, ()


def _unpack(x) -> Permutation:
    return Permutation._raw(tuple(x))


# ---------------------------------------------------------------------------
# Groups


class Group:
    """A finite permutation group given by generators on {1..degree}."""

    def __init__(self, degree: int, generators: Iterable[Permutation] = (), name: str | None = None):
        gens: list[Permutation] = []
        seen: set[Permutation] = set()
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        # conjugation by generator i of a packed y is compose(compose(a, y + pad), b)
        # with (a, b) = _conj[i] (b is generator i's padded table); by its
        # inverse, with (a, b) = _inverse_conj[i]
        self._pack, self._compose, self._pad = _packing(degree)
        packed = [(self._pack(g.img), self._pack(g.inverse().img)) for g in gens]
        self._conj = tuple((ginv, g + self._pad) for g, ginv in packed)
        self._inverse_conj = tuple((g, ginv + self._pad) for g, ginv in packed)
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._classes: "ConjugacyClassSet | None" = None
        self._construction: "_Walk | _Symmetric | None" = None  # see _pick_construction
        self._chartab = None  # filled by chartab.character_table

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def __contains__(self, p: Permutation) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        return self.chain().contains(p)

    def elements(self) -> tuple[Permutation, ...]:
        """All elements as Permutations, sorted by image tuple (desk scale only):
        the keys of the class walk's index, which sort in image-tuple order in
        both packings, whatever G's construction (see ``ConjugacyClassSet``)."""
        if self._elements is None:
            self._elements = tuple(map(_unpack, sorted(self.conjugacy_classes()._index)))
        return self._elements

    def conjugacy_classes(self) -> "ConjugacyClassSet":
        if self._classes is None:
            self._classes = _compute_classes(self)
        return self._classes

    def exponent(self) -> int:
        return self.conjugacy_classes().exponent

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"Group[{label}]"


class ConjugacyClass:
    """A conjugacy class.

    ``members`` lists its packed elements breadth first from its root, the
    element where the class walk found it, which need not be rep.  The
    Schreier edge that reached each member is kept in the class set's
    index, not here.  Under a construction other than the walk, ``members``
    runs the walk on first access (see ``ConjugacyClassSet``).  ``elements`` unpacks the
    members into a frozenset of ``Permutation``s on each access.
    """

    __slots__ = ("rep", "size", "order", "_members", "_owner")

    def __init__(self, rep: Permutation, order: int, size: int, members: list | None = None):
        self.rep = rep
        self.size = size
        self.order = order
        self._members = members
        self._owner: "ConjugacyClassSet | None" = None  # set by the class set

    @property
    def members(self) -> list:
        if self._members is None:
            self._owner._walked()
        return self._members

    @property
    def elements(self) -> frozenset[Permutation]:
        return frozenset(map(_unpack, self.members))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConjugacyClass):
            return NotImplemented
        # the same elements; their breadth-first order depends on the generators
        return self.rep == other.rep and set(self.members) == set(other.members)

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"Class[{self.rep.cycle_string()} size={self.size} order={self.order}]"


class ConjugacyClassSet:
    """Deterministically ordered conjugacy classes of a group, built by its
    construction, which also answers ``position_of``.

    Representatives are the lexicographically smallest element of each class;
    classes are sorted by (element order, class size, representative).

    ``power_columns[i]`` holds the class index of rep**t for t < o(rep);
    every power question reads it.

    The class walk (``_walk``) leaves an index of G's packed elements, and
    the class index of packed x is position[index[x]] (``_walked``).  The
    walk construction builds it with the classes; under any other the walk
    runs on the first use of the index, and each class takes the orbit whose
    least element is its rep.  The symmetric construction sets
    ``symmetric_on`` (its points) and ``cycle_types`` (each class's
    partition of their number), else None.
    """

    __slots__ = (
        "group", "classes", "power_columns", "exponent", "construction",
        "symmetric_on", "cycle_types", "_walk", "_cmc_rows",
    )

    def __init__(self, group: Group, classes: Iterable, power_columns: Iterable, construction):
        self.group = group
        self.classes = tuple(classes)
        self.power_columns = tuple(power_columns)
        self.exponent = math.lcm(*(cl.order for cl in self.classes))
        self.construction = construction
        self.symmetric_on = self.cycle_types = None
        self._walk = None  # (index, position), see _walked
        self._cmc_rows: dict = {}  # chartab.class_mult_coeff's class-matrix rows, keyed (i, j)
        for cl in self.classes:
            cl._owner = self

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[ConjugacyClass]:
        return iter(self.classes)

    @property
    def _index(self) -> dict:
        return self._walked()[0]

    def _walked(self) -> tuple[dict, tuple]:
        """(index, position) of the class walk, run here on the first use of
        the index; each orbit becomes the members of the class whose rep is
        its least element."""
        if self._walk is None:
            G = self.group
            orbits, index = _walk(G, G.order())
            at = {G._pack(cl.rep.img): c for c, cl in enumerate(self.classes)}
            found = []
            for orbit in orbits:
                c = at.get(min(orbit))
                if c is None or self.classes[c].size != len(orbit):
                    raise InvariantError(
                        f"conjugacy classes of {G!r}: the walk found a class of size "
                        f"{len(orbit)} that its cycle types do not give"
                    )
                self.classes[c]._members = orbit
                found.append(c)
            self._walk = (index, _positions(G, found))
        return self._walk

    def position_of(self, x: Permutation) -> int:
        if isinstance(x, Permutation) and x.degree == self.group.degree:
            c = self.construction.position(self, x)
            if c is not None:
                return c
        raise NotInGroupError(f"{x!r} is not in the group")

    def power_map(self, m: int) -> tuple[int, ...]:
        """Class index of rep**m for each class, read off the power columns."""
        return tuple(col[m % len(col)] for col in self.power_columns)

    def inverse_map(self) -> tuple[int, ...]:
        return self.power_map(-1)

    def product_classes(self, i: int, l: int) -> list[int]:
        """The class index of y * rep(l) for every y in class i, in the order
        of the class's members: one packed product per member, whose class
        the index gives."""
        G = self.group
        index, position = self._walked()
        r, pad = G._pack(self.classes[l].rep.img), G._pad
        products = map(G._compose, repeat(r), [y + pad for y in self.classes[i].members])
        return list(map(position.__getitem__, map(index.__getitem__, products)))


def _conjugation_orbit(G: Group, x, index: dict, code: int, central: bool = False) -> list:
    """The class of packed x, breadth first from its root x.  Each member
    enters index: x as code, a multiple of len(G.generators) + 1, and every
    other as code + 1 + i, i the generator that first reached it; just x
    when the caller knows x is central."""
    index[x] = code
    members = [x]
    if central:
        return members
    compose, pad = G._compose, G._pad
    edges = [(a, b, c) for c, (a, b) in enumerate(G._conj, code + 1)]
    push = members.append
    for y in members:
        y_table = y + pad
        for a, b, c in edges:
            z = compose(compose(a, y_table), b)
            if z not in index:
                index[z] = c
                push(z)
    return members


def _transversal(G: Group, index: dict, y) -> tuple:
    """Packed (t, t^-1) for the t in G with t.conj(root) == y, packed y,
    root the root of y's class, read off the Schreier edges in index."""
    compose, pad, inverse_conj = G._compose, G._pad, G._inverse_conj
    t = t_inv = G._pack(range(G.degree))
    code = index[y]
    root = code - code % (len(inverse_conj) + 1)
    while code != root:
        g, ginv_table = inverse_conj[code - root - 1]
        t = compose(g, t + pad)  # t * g
        t_inv = compose(t_inv, ginv_table)  # g^-1 * t^-1
        y = compose(compose(g, y + pad), ginv_table)
        code = index[y]
    return t, t_inv


def _walk(G: Group, n: int) -> tuple[list[list], dict]:
    """The class walk: G's classes as orbits in the order found, and the
    index of their members, grown from the class of 1 without enumerating G.

    The walk reads the elements of the classes found so far in the order
    they were found and tries g * y for each generator g; a product not yet
    covered starts a new class, its conjugation orbit from that element.
    The covered set S is a union of classes, so it is closed under
    conjugation, and it contains 1.  While S != G some g * y leaves S, since
    the Cayley graph of G on its generators is connected; so the walk covers
    G, and it stops as soon as it has, at n = |G| elements.  The k-th orbit
    has root code width * k in the index.  Every class is a singleton when
    G's generators commute, tested once here.
    """
    compose = G._compose
    width = len(G._conj) + 1
    tables = [g_table for _, g_table in G._conj]
    pairs = combinations([(g, t) for (g, _), t in zip(G._inverse_conj, tables)], 2)
    abelian = all(compose(a, tb) == compose(b, ta) for (a, ta), (b, tb) in pairs)
    orbits: list[list] = []
    index: dict = {}  # packed element -> width * (its class's place in orbits) + edge
    # the products g * y leaving the covered set; it reads orbits and index as they grow
    misses = (
        z for orbit in orbits for y in orbit for z in map(compose, repeat(y), tables) if z not in index
    )
    x = G._pack(range(G.degree))
    while True:
        orbits.append(_conjugation_orbit(G, x, index, width * len(orbits), abelian))
        if len(index) == n:
            return orbits, index
        x = next(misses, None)
        if x is None:
            raise InvariantError(
                f"conjugacy classes of {G!r}: the walk covered {len(index)} of {n} elements"
            )


def _positions(G: Group, found: Sequence[int]) -> tuple[int, ...]:
    """The position list of the walk's index, indexed by code: the class
    index found[k] of the k-th orbit, for each of its width codes."""
    return tuple(chain.from_iterable(map(repeat, found, repeat(len(G._conj) + 1, len(found)))))


def _compute_classes(G: Group) -> ConjugacyClassSet:
    """G's classes from its construction, or ResourceLimitError when |G|
    exceeds the enumeration limit."""
    limit, n = env_max_order(DEFAULT_ENUM_LIMIT), G.order()
    if n > limit:
        raise ResourceLimitError(f"group order {n} exceeds enumeration limit {limit}", limit)
    return (G._construction or _pick_construction(G)).classes(G, n)


# ---------------------------------------------------------------------------
# Class-set constructions.  Each has classes(G, n), the class set of G of
# order n; position(cs, x), the class of x of G's degree, or None when x is
# not in G; centralizer(G, z); and conjugator(cs, a, b) for a, b in one class.


def _pick_construction(G: Group) -> "_Walk | _Symmetric":
    """G's construction, kept on G: the symmetric one when G is the full
    symmetric group on the k points its generators move (G lies in it, so
    |G| = k! makes them equal), else the walk."""
    points = frozenset(p for g in G.generators for p, q in enumerate(g.img) if p != q)
    G._construction = _Symmetric(points) if G.order() == math.factorial(len(points)) else _Walk()
    return G._construction


class _Walk:
    """The walk construction, for any group: classes by the class walk, and
    centralizers and conjugators from the Schreier edges of its index."""

    def classes(self, G, n):
        """Each class's rep is its least packed member (the lex-min element).
        Its powers, read until they return to 1, give its order (their
        number) and, through the index, its power column."""
        orbits, index = _walk(G, n)
        one, compose, pad = G._pack(range(G.degree)), G._compose, G._pad
        keys, codes = [], []
        for orbit in orbits:
            rep = x = min(orbit)
            rep_table, column = rep + pad, [index[one]]
            while x != one:
                column.append(index[x])
                x = compose(x, rep_table)  # rep * rep**t
            codes.append(column)
            # (order, size, rep): packed elements sort as their image tuples
            keys.append((len(column), len(orbit), rep))
        found = sorted(range(len(orbits)), key=keys.__getitem__)
        position = _positions(G, sorted(range(len(found)), key=found.__getitem__))
        classes = [ConjugacyClass(_unpack(keys[c][2]), keys[c][0], keys[c][1], orbits[c]) for c in found]
        cs = ConjugacyClassSet(G, classes, [tuple(map(position.__getitem__, codes[c])) for c in found], self)
        cs._walk = (index, position)
        return cs

    def position(self, cs, x):
        index, position = cs._walk
        i = index.get(cs.group._pack(x.img))
        return None if i is None else position[i]

    def centralizer(self, G, z):
        """The stabilizer of z under conjugation, generated by the Schreier
        generators of z's orbit: its class in the index when G's class set
        exists, else a fresh orbit of z (no class set, so no enumeration
        limit).  Each is conjugated by the t with t.conj(root) == z, so the
        generators, though not the subgroup, depend on which orbit was read.
        Only those the chain keeps are unpacked."""
        compose, pad = G._compose, G._pad
        x = G._pack(z.img)
        cs = G._classes
        if cs is None:
            index: dict = {}
            orbit = _conjugation_orbit(G, x, index, 0)
        else:
            index, orbit = cs._index, cs.classes[cs.position_of(z)].members
        t, t_inv = _transversal(G, index, x)
        t_table = t + pad
        target = G.order() // len(orbit)

        def schreier_generator(y, g_table, w):
            # t * T(w)^-1 * g * T(y) * t^-1, composed right to left
            s = compose(t_inv, _transversal(G, index, y)[0] + pad)
            s = compose(compose(s, g_table), _transversal(G, index, w)[1] + pad)
            return compose(s, t_table)

        # (y, g_i) is an edge of the Schreier tree when g_i reached w = g_i.conj(y)
        # from y, so that w's code is c; its Schreier generator is 1 and is skipped
        edges = [(a, b, c) for c, (a, b) in enumerate(G._conj, index[orbit[0]] + 1)]
        schreier = (
            schreier_generator(y, b, w)
            for y in orbit
            for a, b, c in edges
            if index[w := compose(compose(a, y + pad), b)] != c
        )
        gens: list[Permutation] = []
        chain = StabilizerChain(gens, G.degree)
        while chain.order() < target:
            s = next(schreier)
            if chain._extend(s):
                gens.append(_unpack(s))
        C = Group(G.degree, gens)
        C._chain = chain
        return C

    def conjugator(self, cs, a, b):
        """T(b) * T(a)^-1, T read off the index's transversals."""
        G, index = cs.group, cs._index
        t_b = _transversal(G, index, G._pack(b.img))[0]
        t_a_inv = _transversal(G, index, G._pack(a.img))[1]
        return _unpack(G._compose(t_a_inv, t_b + G._pad))


class _Symmetric:
    """The symmetric construction, for G the full symmetric group on the
    (0-based) points its generators move: all by cycle type, with no walk."""

    def __init__(self, points):
        self.points = points
        self.at: dict = {}  # cycle type -> class index, filled by classes

    def classes(self, G, n):
        """One class per partition lambda of k = |points|, of size k!/z_lambda
        and order lcm(lambda) (James & Kerber, *The Representation Theory of
        the Symmetric Group*, 1981, 1.2).

        Its lex-min element maps each point, in ascending order, to the least
        image its cycle type allows: a cycle closes as soon as it can, and
        otherwise moves on to the next unused point.  So it fixes the first
        points, then runs cycles of increasing length, each on consecutive
        points.  An L-cycle to the power t splits into gcd(L, t) cycles of
        length L/gcd(L, t), which gives the power columns; as every L divides
        o = o(rep), rep**t has the type of rep**gcd(t, o).
        """
        ordered, by_type = sorted(self.points), {}
        for lam in _partitions(len(ordered)):
            starts = list(accumulate(reversed(lam), initial=0))
            cycles = [ordered[a:b] for a, b in zip(starts, starts[1:])]
            rep = _mapping(G.degree, (ab for cyc in cycles for ab in zip(cyc, cyc[1:] + cyc[:1])))
            by_type[lam] = ConjugacyClass(rep, math.lcm(*lam), n // _centralizer_order(lam))
        types = sorted(by_type, key=lambda lam: (by_type[lam].order, by_type[lam].size, by_type[lam].rep.img))
        at = self.at = {lam: c for c, lam in enumerate(types)}

        def power_class(lam, t):
            parts = (L // g for L in lam for g in (math.gcd(L, t),) for _ in range(g))
            return at[tuple(sorted(parts, reverse=True))]

        columns = []
        for lam in types:
            o = by_type[lam].order
            by_gcd = {g: power_class(lam, g) for g in divisors(o)}
            columns.append(tuple(by_gcd[math.gcd(t, o)] for t in range(o)))
        cs = ConjugacyClassSet(G, map(by_type.get, types), columns, self)
        cs.symmetric_on, cs.cycle_types = self.points, tuple(types)
        return cs

    def position(self, cs, x):
        cycles = x._cycles0()
        if all(p in self.points for cyc in cycles for p in cyc):
            return self.at[_cycle_type(cycles, len(self.points))]
        return None

    def centralizer(self, G, z):
        """The product over cycle lengths L of C_L wr S_m, m the number of
        z's L-cycles on the points (its fixed points there are the 1-cycles).
        It is generated by each cycle, the swap of the first two L-cycles and
        a cycle through all of them, point by point in each cycle's order.
        Its order must be z_lambda = |G| / |class of z|, checked on its
        chain."""
        n = G.degree
        by_length: dict[int, list] = {}
        for cyc in z._cycles0(fixpoints=True):
            if cyc[0] in self.points:
                by_length.setdefault(len(cyc), []).append(cyc)
        gens = []
        for _, cycles in sorted(by_length.items()):
            gens += [_mapping(n, zip(cyc, cyc[1:] + cyc[:1])) for cyc in cycles]  # Group drops 1-cycles
            if len(cycles) > 1:
                a, b = cycles[:2]
                gens.append(_mapping(n, [*zip(a, b), *zip(b, a)]))
                gens.append(_mapping(n, zip(chain(*cycles), chain(*cycles[1:], cycles[0]))))
        C = Group(n, gens)
        want = _centralizer_order([L for L, cycles in by_length.items() for _ in cycles])
        if C.order() != want:
            raise InvariantError(
                f"centralizer of {z.cycle_string()} in {G!r}: order {C.order()}, "
                f"but |G| / |class| = {want}"
            )
        return C

    def conjugator(self, cs, a, b):
        """The t mapping the cycles of a onto those of b, sorted by length,
        point by point."""
        a_cycles, b_cycles = (
            sorted((c for c in x._cycles0(fixpoints=True) if c[0] in self.points), key=len) for x in (a, b)
        )
        return _mapping(cs.group.degree, zip(chain(*a_cycles), chain(*b_cycles)))


def _partitions(k: int, largest: int | None = None):
    """The partitions of k into parts at most largest, as descending tuples."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def _cycle_type(cycles: Sequence[Sequence[int]], k: int) -> tuple[int, ...]:
    """The partition of k by the lengths of the nontrivial cycles on k
    points, padded with the parts 1 of the fixed ones."""
    lengths = sorted(map(len, cycles), reverse=True)
    return (*lengths, *(1,) * (k - sum(lengths)))


def _centralizer_order(lam: Sequence[int]) -> int:
    """z_lambda = prod over lengths L of L^m_L * m_L!, the order of the
    centralizer of an element of cycle type lambda."""
    return math.prod(L**m * math.factorial(m) for L, m in Counter(lam).items())


def _mapping(degree: int, pairs: Iterable[tuple[int, int]]) -> Permutation:
    """The permutation taking a to b for each (a, b) in pairs, fixing the rest."""
    img = list(range(degree))
    for a, b in pairs:
        img[a] = b
    return Permutation._raw(tuple(img))


def conjugacy_classes(G: Group) -> ConjugacyClassSet:
    return G.conjugacy_classes()


def group_exponent(G: Group) -> int:
    return G.exponent()


def _commutes(a: Permutation, b: Permutation) -> bool:
    ai, bi = a.img, b.img
    return all(ai[bi[i]] == bi[ai[i]] for i in range(len(ai)))


def centralizer(G: Group, z: Permutation) -> Group:
    """The subgroup of G commuting with z, from G's construction."""
    if z not in G:
        raise NotInGroupError("centralizer: element is not in the group")
    C = (G._construction or _pick_construction(G)).centralizer(G, z)
    C.name = f"C_{G.name or 'G'}({z.cycle_string()})"
    return C


def conjugator(G: Group, a: Permutation, b: Permutation) -> Optional[Permutation]:
    """Some t in G with t*a*t^-1 == b, or None if a, b are not conjugate,
    from the construction of G's class set."""
    cs = G.conjugacy_classes()
    i = cs.position_of(a)
    if cs.position_of(b) != i:
        return None
    return cs.construction.conjugator(cs, a, b)


def rational_classes(G: Group, d: int = 1) -> tuple[tuple[int, ...], ...]:
    """Partition of class indices into Galois cells over Q(zeta_d); for
    d = 1, the rational classes.

    The cell of class c is {class of rep(c)**r : r a unit mod o(c) with
    r = 1 mod gcd(d, o(c))}, read off c's power column.  These r are the
    residues mod o(c) of the units R mod lcm(exp(G), d) with R = 1 mod d,
    the Galois automorphisms fixing Q(zeta_d), so the cell is c's orbit
    under them; as the r form a group, the cell is closed under the same
    map, its members being conjugate to such powers.
    """
    if d < 1:
        raise BadDivisorError("d must be a positive integer")
    cs = G.conjugacy_classes()
    assigned = [False] * len(cs)
    cells = []
    for i, col in enumerate(cs.power_columns):
        if assigned[i]:
            continue
        o = len(col)
        step = math.gcd(d, o)
        cell = sorted({col[r % o] for r in range(1, o + 1, step) if math.gcd(r, o) == 1})
        for c in cell:
            assigned[c] = True
        cells.append(tuple(cell))
    return tuple(cells)


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


# ---------------------------------------------------------------------------
# Group-spec grammar
#
#   S<n> | A<n> | C<n> | D<n> (order 2n) | Q8, products joined with "x",
#   or "perm:" followed by semicolon-separated generators in cycle notation.

_ATOM_RE = re.compile(r"^([SACD])([0-9]+)$")
_Q8_CYCLES = [
    [(1, 3, 2, 4), (5, 7, 6, 8)],  # left multiplication by i on (1,-1,i,-i,j,-j,k,-k)
    [(1, 5, 2, 6), (3, 8, 4, 7)],  # left multiplication by j
]


def _parse_cycle_text(text: str) -> list[tuple[int, ...]]:
    s = text.strip()
    if not s:
        raise SpecParseError("empty generator in perm spec")
    cycles: list[tuple[int, ...]] = []
    i = 0
    while i < len(s):
        if s[i] != "(":
            raise SpecParseError(f"expected '(' at position {i} in {text!r}")
        j = s.find(")", i)
        if j < 0:
            raise SpecParseError(f"unbalanced '(' in {text!r}")
        inner = s[i + 1 : j].strip()
        if inner:
            try:
                pts = tuple(int(tok) for tok in inner.split(","))
            except ValueError:
                raise SpecParseError(f"bad cycle {s[i:j + 1]!r}") from None
            if any(p < 1 for p in pts):
                raise SpecParseError("points must be positive integers")
            if len(set(pts)) != len(pts):
                raise SpecParseError(f"repeated point in cycle {s[i:j + 1]!r}")
            cycles.append(pts)
        i = j + 1
    flat = [p for c in cycles for p in c]
    if len(set(flat)) != len(flat):
        raise SpecParseError(f"cycles are not disjoint in {text!r}")
    return cycles


def _symmetric_gens(n: int) -> list[list[tuple[int, ...]]]:
    if n < 2:
        return []
    if n == 2:
        return [[(1, 2)]]
    return [[(1, 2)], [tuple(range(1, n + 1))]]


def _alternating_gens(n: int) -> list[list[tuple[int, ...]]]:
    if n < 3:
        return []
    if n == 3:
        return [[(1, 2, 3)]]
    if n % 2 == 1:
        return [[(1, 2, 3)], [tuple(range(1, n + 1))]]
    return [[(1, 2, 3)], [tuple(range(2, n + 1))]]


def _dihedral_gens(n: int) -> tuple[int, list[list[tuple[int, ...]]]]:
    if n == 1:
        return 2, [[(1, 2)]]
    if n == 2:
        return 4, [[(1, 2)], [(3, 4)]]
    rot = [tuple(range(1, n + 1))]
    refl = [(i, n + 2 - i) for i in range(2, n // 2 + 2) if i < n + 2 - i]
    return n, [rot, [tuple(c) for c in refl]]


def _atomic_group(token: str, max_degree: int) -> Group:
    if token == "Q8":
        degree, cycle_lists = 8, _Q8_CYCLES
    else:
        m = _ATOM_RE.match(token)
        if not m:
            raise SpecParseError(f"unrecognized group token {token!r}")
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise SpecParseError(f"{token!r}: index must be at least 1")
        if kind == "S":
            degree, cycle_lists = max(n, 1), _symmetric_gens(n)
        elif kind == "A":
            degree, cycle_lists = max(n, 1), _alternating_gens(n)
        elif kind == "C":
            degree, cycle_lists = n, ([] if n == 1 else [[tuple(range(1, n + 1))]])
        else:  # D
            degree, cycle_lists = _dihedral_gens(n)
    if degree > max_degree:
        raise DegreeLimitError(f"{token!r} needs degree {degree} > limit {max_degree}")
    gens = [Permutation.from_cycles(degree, cl) for cl in cycle_lists]
    return Group(degree, gens, name=token)


def _direct_product(a: Group, b: Group) -> Group:
    degree = a.degree + b.degree
    gens = []
    for g in a.generators:
        gens.append(Permutation(g.img + tuple(range(a.degree, degree))))
    for g in b.generators:
        gens.append(Permutation(tuple(range(a.degree)) + tuple(i + a.degree for i in g.img)))
    return Group(degree, gens, name=f"{a.name}x{b.name}")


def construct_group(spec: str, *, max_degree: int | None = None) -> Group:
    """Build a Group from a spec string (see module docstring for the grammar)."""
    limit = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    s = spec.strip()
    if not s:
        raise SpecParseError("empty group spec")
    if s.startswith("perm:"):
        body = s[len("perm:") :]
        parts = body.split(";")
        cycle_lists = [_parse_cycle_text(part) for part in parts]
        degree = max((p for cl in cycle_lists for c in cl for p in c), default=1)
        if degree > limit:
            raise DegreeLimitError(f"degree {degree} > limit {limit}")
        gens = [Permutation.from_cycles(degree, cl) for cl in cycle_lists]
        return Group(degree, gens, name=s)
    tokens = s.split("x")
    groups = [_atomic_group(tok, limit) for tok in tokens]
    out = groups[0]
    for h in groups[1:]:
        out = _direct_product(out, h)
    if out.degree > limit:
        raise DegreeLimitError(f"degree {out.degree} > limit {limit}")
    out.name = s
    return out
