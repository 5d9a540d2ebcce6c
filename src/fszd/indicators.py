"""Higher Frobenius-Schur indicators for doubles of finite groups.

Simple modules are labeled by pairs (conjugacy class of g, irreducible
character eta of the centralizer of g).  The m-th indicator of such a module
is computed entirely on the class level:

  * root-counting class functions on centralizers (w, phi, beta, gamma),
  * reduction of the gamma parameters modulo the centralizer exponent,
  * transport of commuting pairs to master class representatives (mates),
  * the class-collapsed group-algebra elements mu, whose characters divided
    by the centralizer order are the indicators nu.

A Session caches everything per group: centralizer groups (one Group per
distinct subgroup, so equal centralizers share one character table), gamma
tables keyed by reduced parameters, mates and mu elements.

Past the character tables, phi and nu are exact ``class_sum``s of a table
row with integer weights (nu folds the 1/|C_G(g)| into the denominator), on
integer forms of the rows, which chartab alone builds.  The characters
backend of gamma is chartab's ``root_pair_counts``: the sum of
beta_chi * chi(c) over the rows, taken in GF(p) for a prime p > |C_G(z)|,
so that the count it sums to is its own residue.  ``beta`` stays exact for
the FSZ test.

The FSZ rationality test works from the beta coefficients alone and skips
parameter combinations that are forced rational, centralizers whose
characters all lie in the field asked for, and table rows that do.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from json.encoder import encode_basestring as _str
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

from ._nt import divisors
from .chartab import (
    CharacterTable,
    ClassFunction,
    character_table,
    class_mult_coeff,
    class_sum,
    root_pair_counts,
)
from .cyclotomic import Cyclotomic, RationalityInfo, ZERO, rationality
from .errors import BadDivisorError, InvariantError, NonCommutingPairError
from .permcore import (
    ConjugacyClassSet,
    Group,
    Permutation,
    _commutes,
    centralizer,
    conjugator,
    rational_classes,
)

_SMALL = frozenset({1, 2, 3, 4, 6})  # gcd values forcing rational beta


@dataclass(frozen=True)
class GammaReduction:
    """How gamma_m^z reduces: a Kronecker delta, the zero function, or a
    Galois twist psi^adams_exp of gamma_{m_reduced}^z."""

    kind: str  # "delta" | "zero" | "reduced"
    m_reduced: int | None = None
    adams_exp: int | None = None


@dataclass(frozen=True)
class Mate:
    """Transport data for a commuting pair (z, h).

    h lies in the centralizer of z; t conjugates h onto the master
    representative g of its class in G, carrying z to a conjugate z' that
    commutes with g.  mate_class is the class of z' inside C_G(g)."""

    z_class: int
    h_class_in_cz: int
    g_class: int
    conjugator: Permutation
    mate_class: int


@dataclass(frozen=True)
class MuElement:
    """Class-collapsed formal combination in the group algebra of C_G(g);
    applying an irreducible eta and dividing by |C_G(g)| yields nu_m(g, eta)."""

    g_class: int
    m: int
    coefficients: dict[int, int]


class Session:
    """Per-group cache of everything indicator computations need."""

    def __init__(self, G: Group):
        self.group = G
        self.classes = G.conjugacy_classes()
        self.exponent = self.classes.exponent
        self.divisors = divisors(self.exponent)
        self.order = G.order()
        self._cent_groups: dict[int, Group] = {}
        self._subgroups: list[Group] = [G]  # distinct centralizers, in build order
        self._roots: dict[tuple[int, int], tuple[int, ...]] = {}
        self._gammas: dict[tuple[int, int, str], tuple[int, ...]] = {}
        self._mates: dict[tuple[int, int], Mate] = {}
        self._mus: dict[tuple[int, int], MuElement] = {}

    # -- centralizer provisioning -------------------------------------------

    def centralizer_group(self, z_class: int) -> Group:
        """C_G(z), reusing an already-built subgroup H whenever H = C_G(z).

        If z commutes with every generator of H then H <= C_G(z), and equal
        orders make that an equality (so z lies in H as well).
        """
        grp = self._cent_groups.get(z_class)
        if grp is None:
            z = self.classes.classes[z_class].rep
            order = self.centralizer_order(z_class)
            for grp in self._subgroups:
                if grp.order() == order and all(_commutes(z, h) for h in grp.generators):
                    break
            else:
                grp = centralizer(self.group, z)
                self._subgroups.append(grp)
            self._cent_groups[z_class] = grp
        return grp

    def centralizer_classes(self, z_class: int) -> ConjugacyClassSet:
        return self.centralizer_group(z_class).conjugacy_classes()

    def centralizer_table(self, z_class: int) -> CharacterTable:
        return character_table(self.centralizer_group(z_class))

    def centralizer_order(self, z_class: int) -> int:
        return self.order // self.classes.classes[z_class].size

    def root_classes(self, z_class: int, m: int) -> tuple[int, ...]:
        """Indices of the classes of C_G(z) made of m-th roots of z: those
        whose m-th power is the class of z, which is {z} as z is central."""
        key = (z_class, m)
        roots = self._roots.get(key)
        if roots is None:
            ccs = self.centralizer_classes(z_class)
            zc = ccs.position_of(self.classes.classes[z_class].rep)
            roots = tuple(a for a, c in enumerate(ccs.power_map(m)) if c == zc)
            self._roots[key] = roots
        return roots

    # -- gamma tables ---------------------------------------------------------

    def gamma_vector(self, z_class: int, m: int, backend: str = "characters") -> tuple[int, ...]:
        """gamma_m^z as an integer vector over the classes of C_G(z)."""
        _check_backend(backend)
        red = reduce_gamma_params(self, z_class, m)
        ccs = self.centralizer_classes(z_class)
        k = len(ccs)
        if red.kind == "delta":
            return (1,) + (0,) * (k - 1)
        if red.kind == "zero":
            return (0,) * k
        key = (z_class, red.m_reduced, backend)
        base = self._gammas.get(key)
        if base is None:
            base = self._gamma_base(z_class, red.m_reduced, backend)
            self._gammas[key] = base
        if red.adams_exp == 1:
            return base
        pm = ccs.power_map(red.adams_exp)
        return tuple(base[j] for j in pm)

    def _gamma_base(self, z_class: int, m: int, backend: str) -> tuple[int, ...]:
        _check_backend(backend)
        if backend == "cmc":
            ccs = self.centralizer_classes(z_class)
            roots = self.root_classes(z_class, m)
            inv = ccs.inverse_map()
            return tuple(
                sum(class_mult_coeff(ccs, a, inv[b], c) for a in roots for b in roots)
                for c in range(len(ccs))
            )
        return root_pair_counts(
            self.centralizer_table(z_class),
            self.root_classes(z_class, m),
            f"gamma at z-class {z_class}, m={m}",
        )

    # -- mates and mu ----------------------------------------------------------

    def mate(self, z_class: int, h_class_in_cz: int) -> Mate:
        key = (z_class, h_class_in_cz)
        mt = self._mates.get(key)
        if mt is None:
            mt = self._compute_mate(z_class, h_class_in_cz)
            self._mates[key] = mt
        return mt

    def _compute_mate(self, z_class: int, h_class_in_cz: int) -> Mate:
        ccs_z = self.centralizer_classes(z_class)
        h = ccs_z.classes[h_class_in_cz].rep
        g_class = self.classes.position_of(h)
        g = self.classes.classes[g_class].rep
        t = conjugator(self.group, h, g)
        z = self.classes.classes[z_class].rep
        if t is None or t.conj(h) != g or not _commutes(g, t.conj(z)):
            raise InvariantError(f"mate: bad conjugator at z-class {z_class}, h-class {h_class_in_cz}")
        mate_class = self.centralizer_classes(g_class).position_of(t.conj(z))
        return Mate(z_class, h_class_in_cz, g_class, t, mate_class)

    def mu(self, g_class: int, m: int) -> MuElement:
        key = (g_class, m)
        el = self._mus.get(key)
        if el is None:
            self._compute_mus(m)
            el = self._mus[key]
        return el

    def _compute_mus(self, m: int) -> None:
        """One sweep of formula (z, h) -> g builds mu_m(g) for every g."""
        accum: dict[int, dict[int, int]] = {g: {} for g in range(len(self.classes))}
        for z_class in range(len(self.classes)):
            gvec = self.gamma_vector(z_class, m)
            if not any(gvec):
                continue
            ccs_z = self.centralizer_classes(z_class)
            cz_order = self.centralizer_order(z_class)
            for h_class, gval in enumerate(gvec):
                if gval == 0:
                    continue
                mt = self.mate(z_class, h_class)
                cg_order = self.centralizer_order(mt.g_class)
                # |z^{C_G(h)}|, which must equal the size of the mate's class in C_G(g)
                weight, rem = divmod(cg_order * ccs_z.classes[h_class].size, cz_order)
                mate_size = self.centralizer_classes(mt.g_class).classes[mt.mate_class].size
                if rem or weight != mate_size:
                    raise InvariantError(f"mu: mate size mismatch at z-class {z_class}, h-class {h_class}")
                bucket = accum[mt.g_class]
                bucket[mt.mate_class] = bucket.get(mt.mate_class, 0) + weight * gval
        for g_class, bucket in accum.items():
            self._mus[(g_class, m)] = MuElement(g_class, m, dict(sorted(bucket.items())))


def _check_backend(backend: str) -> None:
    if backend not in ("characters", "cmc"):
        raise ValueError(f"unknown gamma backend {backend!r}")


# ---------------------------------------------------------------------------
# the spec operations, as free functions over a Session


def w_class_function(session: Session, z_class: int, m: int) -> ClassFunction:
    """Indicator class function of m-th roots of z inside C_G(z)."""
    ccs = session.centralizer_classes(z_class)
    roots = session.root_classes(z_class, m)
    return ClassFunction(ccs, [1 if a in roots else 0 for a in range(len(ccs))])


def phi(session: Session, z_class: int, m: int, chi_index: int) -> Cyclotomic:
    """Character sum over the m-th roots of z in C_G(z)."""
    table = session.centralizer_table(z_class)
    sizes = {a: table.classes.classes[a].size for a in session.root_classes(z_class, m)}
    return class_sum(table.irreducibles[chi_index], sizes)


def beta(session: Session, z_class: int, m: int, chi_index: int) -> Cyclotomic:
    """|phi|^2 / (|C_G(z)| * chi(e)): the coefficient of chi in gamma_m^z."""
    table = session.centralizer_table(z_class)
    ph = phi(session, z_class, m, chi_index)
    deg = table.irreducibles[chi_index].degree().as_integer()
    return ph.abs_squared() / (session.centralizer_order(z_class) * deg)


def reduce_gamma_params(session: Session, z_class: int, m: int) -> GammaReduction:
    """Reduce (z, m) per the gamma redundancies.

    Returns DELTA when gcd(m, e(z)) = 1, ZERO when the reduced divisor m'
    cannot admit m'-th roots of z, and otherwise m' = gcd(m, e(z)) together
    with a unit a' modulo e(z) such that gamma_m = psi^{a'} gamma_{m'}.
    """
    ez = session.centralizer_classes(z_class).exponent
    oz = session.classes.classes[z_class].order
    m0 = m % ez
    mp = math.gcd(m0, ez)  # == ez when m0 == 0
    if mp == 1:
        return GammaReduction("delta")
    if ez % (mp * oz) != 0:
        return GammaReduction("zero")
    if m0 == mp:
        return GammaReduction("reduced", mp, 1)
    # find a with a*m0 = mp (mod ez) and gcd(a, ez) = 1, then invert it
    if m0 == 0:
        a = 1
    else:
        step = ez // mp
        a = pow(m0 // mp, -1, step)
        while math.gcd(a, ez) != 1:
            a = (a + step) % ez
    a_inv = pow(a, -1, ez)
    return GammaReduction("reduced", mp, a_inv)


def gamma(
    session: Session,
    z_class: int,
    m: int,
    backend: str = "characters",
    reduce: bool = True,
) -> ClassFunction:
    """The class function g -> |{x : x^m = (gx)^m = z}| on C_G(z)."""
    ccs = session.centralizer_classes(z_class)
    if reduce:
        return ClassFunction(ccs, session.gamma_vector(z_class, m, backend))
    return ClassFunction(ccs, session._gamma_base(z_class, m, backend))


def adams_cf(f: ClassFunction, r: int) -> ClassFunction:
    """Adams operator psi^r on a class function."""
    return f.adams(r)


def mate(session: Session, z_class: int, h_class_in_cz: int) -> Mate:
    return session.mate(z_class, h_class_in_cz)


def mu(session: Session, g_class: int, m: int) -> MuElement:
    _check_m(session, m)
    return session.mu(g_class, m)


def nu(session: Session, g_class: int, eta_index: int, m: int) -> Cyclotomic:
    """The m-th Frobenius-Schur indicator of the simple labeled (g, eta)."""
    eta = session.centralizer_table(g_class).irreducibles[eta_index]
    return class_sum(eta, mu(session, g_class, m).coefficients, session.centralizer_order(g_class))


def double_character(
    session: Session, g_class: int, eta_index: int
) -> Callable[[Permutation, Permutation], Cyclotomic]:
    """Evaluator for the character of the simple (g, eta) on commuting pairs."""
    g = session.classes.classes[g_class].rep
    table = session.centralizer_table(g_class)
    eta = table.irreducibles[eta_index]
    G = session.group

    def evaluate(x: Permutation, y: Permutation) -> Cyclotomic:
        if not _commutes(x, y):
            raise NonCommutingPairError("double character needs a commuting pair")
        if session.classes.position_of(x) != g_class:
            return ZERO
        t = conjugator(G, x, g)
        return eta.value_at(t.conj(y))

    return evaluate


# ---------------------------------------------------------------------------
# FSZ rationality test


@dataclass(frozen=True)
class FszResult:
    verdict: bool
    witness: tuple[int, int, int] | None  # (z_class, m, chi_index)
    betas_checked: int
    d: int

    def __bool__(self) -> bool:
        return self.verdict


def fsz_test(G: Group | Session, d: int = 1) -> FszResult:
    """Decide whether all indicators of D(G) lie in Q(zeta_d), via beta.

    For d = 1 this is the FSZ property.  One class z per rational class of G
    is examined, and m runs over the divisors of exp(C)/o(z), C = C_G(z);
    ``betas_checked`` counts the beta values actually computed.  The first
    beta outside Q(zeta_d), or not real, is the witness.  Three exact skip
    rules leave out betas that cannot be a witness, in this order:

    * for d = 1, a class z and divisor m are only examined when
      gcd(m, o(z)) forces a field larger than Q, which per the reduction
      lemmas requires gcd(m, o(z)) outside {1, 2, 3, 4, 6};
    * no character table is built for z when every character of C takes
      its values in Q(zeta_d) (``_all_characters_in``);
    * in a table that is built, beta is computed only for the rows with a
      value outside Q(zeta_d) (``_rows_leaving``).

    The last two rest on beta_chi lying in Q(chi), the field of values of
    chi, and being real.  beta_chi = |phi_chi|^2 / (|C| chi(1)) is real, and
    it is the coefficient of chi in gamma_m^z, an integer-valued class
    function on C, so it equals <gamma_m^z, chi>, a rational combination of
    the values of chi.  So a chi with values in Q(zeta_d) has its beta in
    Q(zeta_d), real, and never a witness.  Whether all characters of C do
    is read off C's classes: by Brauer's permutation lemma (Isaacs,
    Character Theory of Finite Groups, Thm 6.32) a Galois automorphism
    sigma_r fixes every irreducible character exactly when it fixes every
    class, i.e. rep(c)**r lies in c for each class c.  So every
    character lies in Q(zeta_d) exactly when each class is alone in its
    Galois cell over Q(zeta_d) (``rational_classes(C, d)``).  A skipped
    beta can never fail, so the verdict and witness are those of the test
    without the skips.
    """
    if d < 1:
        raise BadDivisorError("d must be a positive integer")
    session = G if isinstance(G, Session) else Session(G)
    checked = 0
    for cell in rational_classes(session.group):
        z_class = cell[0]
        oz = session.classes.classes[z_class].order
        if d == 1 and oz in _SMALL:
            continue
        ez = session.centralizer_classes(z_class).exponent
        ms = list(divisors(ez // oz))
        if d == 1:
            ms = [
                m
                for m in ms
                if m not in _SMALL and math.gcd(m, oz) not in _SMALL
            ]
        if not ms or _all_characters_in(session.centralizer_group(z_class), d):
            continue
        table = session.centralizer_table(z_class)
        rows = _rows_leaving(table, d)
        for m in ms:
            for chi_index in rows:
                value = beta(session, z_class, m, chi_index)
                checked += 1
                if not (value.in_field(d) and value.is_real()):
                    return FszResult(False, (z_class, m, chi_index), checked, d)
    return FszResult(True, None, checked, d)


def _all_characters_in(C: Group, d: int) -> bool:
    """Whether every irreducible character of C has its values in
    Q(zeta_d), read off C's classes with no table (see ``fsz_test``)."""
    return all(len(cell) == 1 for cell in rational_classes(C, d))


def _rows_leaving(table: CharacterTable, d: int) -> list[int]:
    """Indices of the rows of table with a value outside Q(zeta_d)."""
    return [
        i for i, cf in enumerate(table.irreducibles) if not all(v.in_field(d) for v in cf.values)
    ]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class IndicatorEntry:
    m: int
    value: Cyclotomic
    rational: bool
    pretty: str
    approx: float | complex


@dataclass(frozen=True)
class SimpleIndicators:
    g_class: int
    eta_index: int
    eta_degree: int
    indicators: tuple[IndicatorEntry, ...]


class IndicatorReport:
    """All indicators of the double, for every simple and requested m."""

    def __init__(self, session: Session, ms: Sequence[int], simples: Sequence[SimpleIndicators]):
        self.group = session.group.name or f"degree-{session.group.degree} group"
        self.order = session.order
        self.exponent = session.exponent
        self.ms = tuple(ms)
        self.classes = tuple(
            {
                "index": i,
                "rep": cl.rep.cycle_string(),
                "size": cl.size,
                "order": cl.order,
            }
            for i, cl in enumerate(session.classes.classes)
        )
        self.simples = tuple(simples)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "exponent": self.exponent,
            "classes": list(self.classes),
            "simples": [
                {
                    "g_class": s.g_class,
                    "eta_index": s.eta_index,
                    "eta_degree": s.eta_degree,
                    "indicators": [
                        {
                            "m": e.m,
                            "value": e.value.to_json_dict(),
                            "rational": e.rational,
                            "pretty": e.pretty,
                            "approx": e.approx if not isinstance(e.approx, complex) else [e.approx.real, e.approx.imag],
                        }
                        for e in s.indicators
                    ],
                }
                for s in self.simples
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2)``,
        byte for byte, filled into fixed templates without building the dict
        (an indent sends ``json`` to its pure-Python encoder).  Each distinct
        entry object is encoded once, and the text is one join of pieces,
        the entries' texts among them."""
        texts: dict[int, str] = {}  # id of an entry -> its text
        out = [_REPORT[0] % (_str(self.group), self.order, self.exponent)]

        def entry(e: IndicatorEntry) -> None:
            text = texts.get(id(e))
            if text is None:
                text = texts[id(e)] = _entry_json(e)
            out.append(text)

        def simple(s: SimpleIndicators) -> None:
            out.append(_SIMPLE[0] % (s.g_class, s.eta_index, s.eta_degree))
            _array_into(out, s.indicators, " " * 8, entry)
            out.append(_SIMPLE[1])

        def one_class(c: dict) -> None:
            out.append(_CLASS % (c["index"], _str(c["rep"]), c["size"], c["order"]))

        _array_into(out, self.classes, " " * 4, one_class)
        out.append(_REPORT[1])
        _array_into(out, self.simples, " " * 4, simple)
        out.append(_REPORT[2])
        return "".join(out)

    def to_csv(self) -> str:
        """One row per (simple, entry): each simple's leading cells and each
        distinct entry's cells (keyed by id, as in ``to_json``) are formatted
        once, and each line joins the two."""
        # writerow returns what its file's write returns: here, the row's text
        row = csv.writer(SimpleNamespace(write=str), lineterminator="").writerow
        lines = [_CSV_HEADER]
        texts: dict[int, str] = {}  # id of an entry -> its cells
        for s in self.simples:
            lead = row([self.group, s.g_class, s.eta_index, s.eta_degree])
            for e in s.indicators:
                text = texts.get(id(e))
                if text is None:
                    value = _CSV_VALUE % (e.value.conductor, '", "'.join(e.value.coeff_texts()))
                    text = texts[id(e)] = row([e.m, value, e.rational, e.pretty, e.approx])
                lines.append(f"{lead},{text}\n")
        return "".join(lines)

    def values_for(self, g_class: int, eta_index: int) -> dict[int, Cyclotomic]:
        for s in self.simples:
            if s.g_class == g_class and s.eta_index == eta_index:
                return {e.m: e.value for e in s.indicators}
        raise KeyError((g_class, eta_index))


# the layout json.dumps(indent=2) gives a report, one template line per output
# line; _array and _array_into add the brackets and item indents of each
# list but coeffs, which is never empty.  _REPORT and _SIMPLE are the texts
# around their arrays.
_REPORT = (
    '{\n'
    '  "group": %s,\n'
    '  "order": %d,\n'
    '  "exponent": %d,\n'
    '  "classes": ',
    ',\n'
    '  "simples": ',
    '\n'
    '}',
)
_CLASS = (
    '{\n'
    '      "index": %d,\n'
    '      "rep": %s,\n'
    '      "size": %d,\n'
    '      "order": %d\n'
    '    }'
)
_SIMPLE = (
    '{\n'
    '      "g_class": %d,\n'
    '      "eta_index": %d,\n'
    '      "eta_degree": %d,\n'
    '      "indicators": ',
    '\n'
    '    }',
)
_ENTRY = (
    '{\n'
    '          "m": %d,\n'
    '          "value": {\n'
    '            "conductor": %d,\n'
    '            "coeffs": [\n'
    '              "%s"\n'
    '            ]\n'
    '          },\n'
    '          "rational": %s,\n'
    '          "pretty": %s,\n'
    '          "approx": %s\n'
    '        }'
)
# coefficient texts need no JSON escapes, so the separators of a coeffs list
# close one string and open the next
_COEFF_SEP = '",\n' + " " * 14 + '"'
# json.dumps(value.to_json_dict()), the CSV value cell
_CSV_VALUE = '{"conductor": %d, "coeffs": ["%s"]}'
_CSV_HEADER = "group,g_class,eta_index,eta_degree,m,value,rational,pretty,approx\n"


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, each on its own line at the indent."""
    if not items:
        return "[]"
    return "[\n" + indent + (",\n" + indent).join(items) + "\n" + indent[:-2] + "]"


def _array_into(out: list[str], items: Iterable, indent: str, put: Callable) -> None:
    """Append to out the pieces of ``_array``'s text, ``put(item)`` appending
    those of each item."""
    sep = "[\n" + indent
    for item in items:
        out.append(sep)
        put(item)
        sep = ",\n" + indent
    out.append("[]" if sep[0] == "[" else "\n" + indent[:-2] + "]")


def _entry_json(e: IndicatorEntry) -> str:
    value = e.value
    approx = e.approx
    if isinstance(approx, complex):
        approx_text = _array([float.__repr__(approx.real), float.__repr__(approx.imag)], " " * 12)
    else:
        approx_text = float.__repr__(approx)
    return _ENTRY % (
        e.m,
        value.conductor,
        _COEFF_SEP.join(value.coeff_texts()),
        "true" if e.rational else "false",
        _str(e.pretty),
        approx_text,
    )


def checked_ms(session: Session, ms: Iterable[int] | None) -> list[int]:
    """The m values of a sweep: every divisor of exp(G) when ms is None, else
    ms sorted without repeats; each is checked to divide exp(G)."""
    m_list = list(session.divisors) if ms is None else sorted(set(ms))
    for m in m_list:
        _check_m(session, m)
    return m_list


def _check_m(session: Session, m: int) -> None:
    if m < 1 or session.exponent % m != 0:
        raise BadDivisorError(f"m={m} does not divide exp(G)={session.exponent}")


def all_indicators(session: Session, ms: Iterable[int] | None = None) -> IndicatorReport:
    """Indicators for every simple of D(G) and every requested divisor m.

    Few of the values are distinct, so the report holds one (frozen)
    ``IndicatorEntry`` per distinct (m, value), and ``rationality`` runs
    once per distinct value."""
    m_list = checked_ms(session, ms)
    infos: dict[Cyclotomic, RationalityInfo] = {}
    shared: dict[tuple[int, Cyclotomic], IndicatorEntry] = {}
    simples = []
    for g_class in range(len(session.classes)):
        table = session.centralizer_table(g_class)
        degrees = table.degrees
        for eta_index in range(len(table.irreducibles)):
            entries = []
            for m in m_list:
                value = nu(session, g_class, eta_index, m)
                entry = shared.get((m, value))
                if entry is None:
                    info = infos.get(value)
                    if info is None:
                        info = infos[value] = rationality(value)
                    entry = shared[m, value] = IndicatorEntry(
                        m, value, info.is_rational, info.pretty, info.approx
                    )
                entries.append(entry)
            simples.append(
                SimpleIndicators(g_class, eta_index, degrees[eta_index], tuple(entries))
            )
    return IndicatorReport(session, m_list, simples)

