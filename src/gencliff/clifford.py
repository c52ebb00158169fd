"""Rank-3 generalized Clifford triples: relation checking, the induced
bi-quaternion structures (J_i, G), the projections (G+-, I_i+-), and the
simultaneous-integrability suite.

The relations and the induced algebra are decided on one product table per
triple (``_ProductTable``, cached with the triple, and its structures kept
once each in the triple's numerator store, ``_Store``): the generators'
numerators I_i over their base m and 13 products of numerator matrices on
the kernel -- the 9 I_i I_j, the 3 orthogonality products and
G = -(I1 I2) I3 -- with every identity checked exactly on numerators lifted
to one power of m.  J_i = eps_ijk I_j I_k / 2 is read off the table with no
product.  The rest of the bi-quaternion table (J_i J_j, I_i J_j, J_i I_j,
G^2 = Id) follows from the six Clifford relations by associativity (proof
in ``induce``), so it is not multiplied out.  The projections need no
product either: the table gives G I_i = J_i and G J_i = I_i, so every
product of G+- and I_i+- expands into table entries (proof in
``project``).  The same table fixes which of Theorem 1.1's families
commute: for i != j, I_i I_j = e_ijk J_k = -I_j I_i,
J_i J_j = e_ijk J_k = -J_j J_i and I_i J_j = e_ijk I_k = -J_j I_i, each
nonzero as its square is -Id, so those 12 families anticommute and do not
commute; the 9 with i = j commute (I_i J_i = J_i I_i = -G).  Theorem 1.1's
setup reads each family's products I J and J I off the table as well
(``_table_product``).  The dense EndField versions of these checks are the
oracle in the tests.

The model hardcodes three generators (the rank-3 case); general rank-r is an
extension point, not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from ._core import kernel as K
from .scalar import ChartMismatchError
from .courant import FluxForm, monomials_up_to
from .gcs import (HALF, BoundTensor, EndField, TensorReport, _PowerDen,
                  _Structure, _commuting_residuals, _mat_mul_terms,
                  _sparse_rows, _tensor_report, bind_nijenhuis, vanishes)

_EPS_TABLE = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1,
}


def levi_civita(i, j, k):
    """Totally antisymmetric symbol with eps_123 = +1 (1-based indices).

    The single source of sign truth shared by the induced-structure algebra
    and the twistor rotation layer.
    """
    return _EPS_TABLE.get((i, j, k), 0)


@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool


@dataclass(frozen=True)
class RelationsReport:
    checks: tuple
    ok: bool

    @property
    def failures(self):
        return [c.name for c in self.checks if not c.ok]


@dataclass(frozen=True)
class TripleStatus:
    relations: RelationsReport | None = None
    integrability: tuple = ()          # TensorReport per generator

    @property
    def relations_ok(self):
        return self.relations is not None and self.relations.ok

    @property
    def integrable(self):
        return bool(self.integrability) and \
            all(r.vanished for r in self.integrability)

    @property
    def verified(self):
        return self.relations_ok and self.integrable


class CliffordTriple:
    """Three anticommuting almost generalized complex structures sharing a
    chart and a flux, with a verification status record.

    ``induce`` and ``project`` cache their results on the triple.  A copy
    made by ``with_status`` has the same generators and flux, so it shares
    the cache with the triple it was made from: whichever of them computes
    the algebra first computes it for all.
    """

    __slots__ = ("chart", "I1", "I2", "I3", "flux", "status", "_algebra")

    def __init__(self, I1: EndField, I2: EndField, I3: EndField,
                 flux: FluxForm | None = None,
                 status: TripleStatus | None = None):
        chart = I1.chart
        if I2.chart != chart or I3.chart != chart:
            raise ChartMismatchError("generators on different charts")
        for E in (I1, I2, I3):
            if E.flux is not None and flux is not None and E.flux != flux:
                raise ValueError("generator flux conflicts with triple flux")
        if flux is None:
            flux = I1.flux
        self.chart = chart
        self.I1 = I1.with_flux(flux) if I1.flux is None and flux is not None else I1
        self.I2 = I2.with_flux(flux) if I2.flux is None and flux is not None else I2
        self.I3 = I3.with_flux(flux) if I3.flux is None and flux is not None else I3
        self.flux = flux
        self.status = status or TripleStatus()
        # {"table": _ProductTable, "numerators": _Store,
        #  "induced": InducedStructures, "projections": Projections}
        self._algebra = {}

    @property
    def generators(self):
        return (self.I1, self.I2, self.I3)

    def with_status(self, status):
        out = CliffordTriple(self.I1, self.I2, self.I3, self.flux, status)
        out._algebra = self._algebra
        return out

    def __repr__(self):
        return (f"CliffordTriple(dim={self.chart.dim}, "
                f"verified={self.status.verified})")


_NEG = (-1, 0, 1)


def _lin(*terms):
    """sum c M over the (c, M) pairs: kernel coefficients c and dense
    matrices M of numerators over one power of the base."""
    size = len(terms[0][1])
    out = [[{} for _ in range(size)] for _ in range(size)]
    for c, M in terms:
        for acc, row in zip(out, M):
            for j, p in enumerate(row):
                if p:
                    acc[j] = K.p_add(acc[j], K.p_scale(p, c))
    return out


class _ProductTable:
    """The kernel product table of a triple: its generators' numerators
    I_i over m^1, m the LCM of their denominators (``gcs._PowerDen.lcm``;
    m = 1 for polynomial generators), and the products of numerator
    matrices (``gcs._mat_mul_terms``) that decide the Clifford relations
    and build the induced structures.  A product of numerators over m^j
    and m^k is the numerator over m^(j+k), so each identity is decided on
    numerators lifted to one power of m, with no GCD.

    Built on first use (``_table``) and cached with the triple: the 9
    products I_i I_j (over m^2) and, for orthogonality, the 3 products
    E^T (S E), where S E is E's rows permuted.  The induced part, built by
    the first ``induce``, ``project`` or read of a store record, adds
    J_i = eps_ijk I_j I_k / 2 (over m^2, no product) and G = -(I1 I2) I3
    (m^3): 13 products in all.  The rest of the bi-quaternion table is
    implied by the six Clifford checks (``induce``).  Polynomial
    generators with rational coefficients put the table over the integer
    m = L (``_PowerDen.lcm`` with integral), so that every product adds
    integral numerators and merges no denominators.  ``rows`` gives each
    structure of the table, and the triple's numerator store
    (``_Store``) keeps each over its own base."""

    def __init__(self, gens):
        self.chart = chart = gens[0].chart
        self.base = _PowerDen.lcm(chart, [f for E in gens
                                          for row in E.entries for f in row],
                                  integral=True)
        self.I = [self.base.numerators(E) for E in gens]
        self.II = [[_mat_mul_terms(a, b) for b in self.I] for a in self.I]
        self.relations = self._relations()

    def eye(self, k, c=K.C_ONE, shift=0):
        """c m^k times the permutation matrix with ones at (r, r + shift
        mod 2n): c m^k Id for shift 0."""
        size = len(self.I[0])
        d = K.p_scale(self.base.mpow(k), c)
        return [[d if j == (r + shift) % size else {} for j in range(size)]
                for r in range(size)]

    def _relations(self):
        II, n = self.II, self.chart.dim
        checks = []
        for i in range(3):
            for j in range(i, 3):
                if i == j:
                    checks.append(RelationCheck(
                        f"I{i+1}^2 = -Id", II[i][i] == self.eye(2, _NEG)))
                else:
                    anti = _lin((K.C_ONE, II[i][j]), (K.C_ONE, II[j][i]))
                    checks.append(RelationCheck(
                        f"I{i+1} I{j+1} + I{j+1} I{i+1} = 0",
                        not any(p for row in anti for p in row)))
        # E^T P E = P, P_rs = 1/2 iff s = r + n mod 2n (the pairing), as
        # E^T S E = S for S = 2P, the swap of the halves: S E is E's rows
        # permuted, so the product stays over the table's one denominator
        for i, E in enumerate(self.I):
            SE = [E[(r + n) % (2 * n)] for r in range(2 * n)]
            checks.append(RelationCheck(
                f"I{i+1} orthogonal",
                _mat_mul_terms([list(c) for c in zip(*E)], SE)
                == self.eye(2, K.C_ONE, n)))
        checks = tuple(checks)
        return RelationsReport(checks, all(c.ok for c in checks))

    @cached_property
    def induced(self):
        """(J, G, table_ok): the J_i over m^2, G over m^3 and the verdict
        on the multiplication table of ``induce``, which is the verdict of
        the six Clifford checks (orthogonality is not part of it)."""
        II = self.II
        J = [_lin((HALF, II[(i + 1) % 3][(i + 2) % 3]),
                  (K.c_neg(HALF), II[(i + 2) % 3][(i + 1) % 3]))
             for i in range(3)]
        G = _lin((_NEG, _mat_mul_terms(II[0][1], self.I[2])))
        return J, G, all(c.ok for c in self.relations.checks[:6])

    def rows(self, name):
        """(numerators over m^k, k) of the structure named I1..I3 (k = 1),
        J1..J3 (k = 2), G (k = 3), or of a projection: I1+..I3+ and
        I1-..I3-, (J_i +- I_i)/2 over m^2, and G+, G-, (Id +- G)/2 over
        m^3 (``project``)."""
        if len(name) == 2 and name[0] == "I":
            return self.I[int(name[1]) - 1], 1
        J, G, _ = self.induced
        if name[0] == "G":
            if name == "G":
                return G, 3
            return _lin((HALF, self.eye(3)), (_SIGNS[name[-1]], G)), 3
        i = int(name[1]) - 1
        if name[0] == "J":
            return J[i], 2
        I = [self.base.lift(row, 1, 2) for row in self.I[i]]
        return _lin((HALF, J[i]), (_SIGNS[name[-1]], I)), 2


_SIGNS = {"+": HALF, "-": K.c_neg(HALF)}


class _Store(dict):
    """A triple's numerator store: each structure of its product table by
    name (``_ProductTable.rows``), built on first use as a
    ``gcs._Structure`` over its own base (``_Structure.own``; the unit
    base for a polynomial structure), with its kernel layout,
    skew-adjointness verdict and generator images built once for every
    family that reads it (``gcs._kernel_setup``).  The EndFields of
    ``induce`` and ``project`` are built from it only when read."""

    def __init__(self, tab, flux):
        self.tab, self.flux, self.bases = tab, flux, {}

    def __missing__(self, name):
        rows, k = self.tab.rows(name)
        self[name] = _Structure.own(self.tab.base, rows, k, self.bases)
        return self[name]

    def endfield(self, name):
        """The EndField of the structure name, each entry normalized once
        (wrapped as it is over the unit base); G+- carry no flux (as
        Id +- G, Id having none), every other structure T's flux."""
        S = self[name]
        flux = None if name in ("G+", "G-") else self.flux
        return S.base.endfield(S.rows, flux)


def _table(T: CliffordTriple) -> _ProductTable:
    """T's product table, shared with its ``with_status`` copies."""
    if "table" not in T._algebra:
        T._algebra["table"] = _ProductTable(T.generators)
    return T._algebra["table"]


def _store(T: CliffordTriple) -> _Store:
    """T's numerator store, shared with its ``with_status`` copies."""
    if "numerators" not in T._algebra:
        T._algebra["numerators"] = _Store(_table(T), T.flux)
    return T._algebra["numerators"]


def check_relations(T: CliffordTriple) -> RelationsReport:
    """Verify I_i I_j + I_j I_i = -2 delta_ij Id for all six unordered pairs,
    plus orthogonality of each generator (every check exact, on the
    numerators of T's product table)."""
    return _table(T).relations


def verify_triple(T: CliffordTriple,
                  degree_bound: int | None = None) -> CliffordTriple:
    """Run relations plus per-generator integrability (``gcs.vanishes``: the
    symbol certificate by default, a sweep for an integer degree_bound);
    returns a new triple carrying the verification status.  Relations
    already checked on T (its status carries their report) are kept, not
    checked again.

    The certificate evaluates each N(Ii,Ii) on the 2n(2n - 1)/2 frame pairs
    a < b (28 at n = 4) when Ii^2 = -Id holds exactly and Ii is
    skew-adjoint for the pairing, which make N(Ii,Ii) C-infinity-bilinear
    and skew; of those, only the pairs within the two halves of a
    J-complex frame (``gcs._complex_frame``: frame elements that, with
    their images under Ii, span the fiber at one point, n of them for a
    real Ii, split in index order) are evaluated, C(h, 2) + C(n - h, 2)
    with h = floor(n/2): 2 at n = 4, for ``hyperkahler_r4`` and its
    B-transforms alike, and 12 at n = 8.  With Ii^2 = -Id alone
    it takes 2n * 2n * (1 + n) pairs (320), and 2n * 2n * (1 + 2n) (576)
    otherwise, since only then does the second slot's Leibniz term
    (rho(A)g)(Ii^2 + 1)B vanish.

    Each Ii is read from T's numerator store (``_Store``), and each whose
    "Ii^2 = -Id" check of T's product table passed enters its check with
    that square, read as -m^2 Id over the tensor's base m
    (``gcs._signed_numerators``), so no square is multiplied.

    The three reports share 10 witnesses: a generator gets the budget the
    earlier ones left, and once it is spent the remaining generators are not
    evaluated and get no report -- the triple has already failed."""
    rel = T.status.relations or check_relations(T)
    squared = {c.name: c.ok for c in check_relations(T).checks}
    reports = []
    for i, E in enumerate(T.generators):
        cap = 10 - sum(len(r.witnesses) for r in reports)
        if cap <= 0:
            break
        square = (-1, None) if squared[f"I{i+1}^2 = -Id"] else None
        tensor = bind_nijenhuis(E, f"N(I{i+1},I{i+1})", T.flux, square)
        reports.append(vanishes(replace(
            tensor, numerators=(_store(T)[f"I{i+1}"],)), degree_bound, cap))
    return T.with_status(TripleStatus(rel, tuple(reports)))


@dataclass(frozen=True)
class InducedStructures:
    """J_i = eps_ijk I_j I_k / 2 and G = -I1 I2 I3, with the verified
    bi-quaternion multiplication table; generators are the I_i they were
    induced from.  Each EndField is built from the triple's numerator
    store (store) when it is first read."""

    table_ok: bool
    generators: tuple = field(compare=False, repr=False)
    store: _Store = field(compare=False, repr=False)

    J1 = cached_property(lambda self: self.store.endfield("J1"))
    J2 = cached_property(lambda self: self.store.endfield("J2"))
    J3 = cached_property(lambda self: self.store.endfield("J3"))
    G = cached_property(lambda self: self.store.endfield("G"))

    @property
    def J(self):
        return (self.J1, self.J2, self.J3)


def induce(T: CliffordTriple) -> InducedStructures:
    """Build the induced structures J_i = eps_ijk I_j I_k / 2 and
    G = -I1 I2 I3 from T's product table, with the verdict on their
    multiplication table
    I_i I_j = -d_ij + e_ijk J_k,  J_i J_j = -d_ij + e_ijk J_k,
    I_i J_j = J_i I_j = -d_ij G + e_ijk I_k,  G^2 = Id.

    table_ok is the verdict of the six Clifford checks
    I_i I_j + I_j I_i = -2 d_ij Id, each exact on the table's numerators;
    they imply the whole table, by associativity alone.  By them I_i^2 = -1
    and I_i I_j = -I_j I_i for i != j, and J_i = I_j I_k for (i, j, k)
    cyclic, so each of Id, I_k, J_k and G is +- a word of distinct
    generators: J_1 = I2 I3, J_2 = I3 I1, J_3 = I1 I2, G = -I1 I2 I3.  A
    product of two words reduces to +- one word: move a generator past a
    different one at the cost of a sign, and cancel I_i I_i = -1.  For
    (i, j, k) cyclic:

        I_i I_j = J_k,  I_j I_i = -J_k,  I_i I_i = -1,
        J_i J_j = I_j I_k I_k I_i = -I_j I_i = J_k,
        J_j J_i = I_k I_i I_j I_k = I_k I_k I_i I_j = -J_k,
        J_i J_i = I_j I_k I_j I_k = -I_j I_j I_k I_k = -1,
        I_i J_j = I_i I_k I_i = I_k,    J_i I_j = I_j I_k I_j = I_k,
        I_j J_i = I_j I_j I_k = -I_k,   J_j I_i = I_k I_i I_i = -I_k,
        I_i J_i = I_i I_j I_k = -G,     J_i I_i = I_j I_k I_i = -G,
        G^2 = I1 I2 I3 I1 I2 I3 = I1 I1 I2 I3 I2 I3 = -I2 I3 I2 I3 = 1

    (a generator moved past two others keeps its sign: I_j I_k I_i =
    I_i I_j I_k = I1 I2 I3 for every cyclic (i, j, k)), which is the
    table, with e_ijk = 1 and e_jik = -1.  So no entry of the table is
    multiplied out here (the dense oracle in the tests multiplies each
    one).  Orthogonality is not part of table_ok: the table holds for any
    matrices with the Clifford relations, orthogonal or not.

    The result is cached on T (and its ``with_status`` copies), so later
    calls return the same object; the relations guard runs on every call.
    J_i and G are kept as numerators in T's store, and their EndFields are
    built only when read."""
    if not T.status.relations_ok:
        raise ValueError("relations not verified; run verify_triple first")
    if "induced" not in T._algebra:
        T._algebra["induced"] = InducedStructures(
            _table(T).induced[2], T.generators, _store(T))
    return T._algebra["induced"]


@dataclass(frozen=True)
class Projections:
    """G+- = (Id +- G)/2 and I_i+- = (J_i +- I_i)/2 with the verified
    projection and two-sector quaternion relations; each EndField is built
    from the triple's numerator store (store) when it is first read."""

    identities_ok: bool
    store: _Store = field(compare=False, repr=False)

    Gp = cached_property(lambda self: self.store.endfield("G+"))
    Gm = cached_property(lambda self: self.store.endfield("G-"))
    Ip = cached_property(lambda self: tuple(
        self.store.endfield(f"I{l}+") for l in (1, 2, 3)))
    Im = cached_property(lambda self: tuple(
        self.store.endfield(f"I{l}-") for l in (1, 2, 3)))


def project(ind: InducedStructures, T: CliffordTriple) -> Projections:
    """Split into the two commuting quaternionic sectors:
    (G+-)^2 = G+-, G+ + G- = Id, I_i+- I_j+- = -d_ij G+- + e_ijk I_k+-,
    and every mixed +- product vanishes.

    G+- and I_i+- are linear combinations of the numerators in T's product
    table, kept in T's numerator store (``_ProductTable.rows``, ``_Store``)
    with their EndFields built only when read, and identities_ok is the
    table's verdict: every product above
    expands into verified table entries.  The table gives G I_i = J_i and
    G J_i = I_i: for j != i, G = -I_j J_j, so G I_i = -I_j (J_j I_i)
    = -e_jik I_j I_k = -e_jik e_jki J_i = J_i, as e_jik e_jki = -1, and
    G J_i = -I_j (J_j J_i) = -e_jik I_j J_k = I_i the same way.  Then

        I_i+- I_j+- = (J_i J_j +- J_i I_j +- I_i J_j + I_i I_j)/4
                    = -d_ij (Id +- G)/2 + e_ijk (J_k +- I_k)/2
                    = -d_ij G+- + e_ijk I_k+-,
        I_i+ I_j-   = (J_i J_j - J_i I_j + I_i J_j - I_i I_j)/4 = 0,
        G+ I_i-     = (J_i - I_i + G J_i - G I_i)/4 = 0,

    the other mixed products likewise, and G^2 = Id gives (G+-)^2 = G+-
    and G+ G- = G- G+ = 0.  So the projection identities follow from the
    table, which follows from the Clifford relations (``induce``); only
    those are literal matrix checks.

    ind must be induced from T's generators (else ValueError).  When ind
    is T's own cached ``induce(T)`` the result is cached on T as well; the
    table guard runs on every call."""
    if not ind.table_ok:
        raise ValueError("induced multiplication table not verified")
    if len(ind.generators) != 3 or not all(
            a.entries_equal(b) for a, b in zip(ind.generators, T.generators)):
        raise ValueError("induced structures of another triple")
    proj = Projections(ind.table_ok, _store(T))
    if ind is not T._algebra.get("induced"):
        return proj
    return T._algebra.setdefault("projections", proj)


@dataclass
class SuiteReport:
    """Outcome of a family of tensor-vanishing checks."""

    name: str
    status: str                     # "pass" | "fail" | "inconclusive"
    families: list = field(default_factory=list)   # TensorReport
    note: str = ""

    @property
    def ok(self):
        return self.status == "pass"

    def witnesses(self):
        out = []
        for rep in self.families:
            for w in rep.witnesses:
                out.append((rep.name,) + w)
        return out


# positions in theorem_1_1_families of the diagonal families N(I_i, J_i),
# and of all 9 families whose structures commute (i = j; module docstring)
_DIAGONAL = (12, 16, 20)
_COMMUTING = frozenset((0, 3, 5, 6, 9, 11) + _DIAGONAL)


def _table_product(store, i, j, unit, fam):
    """(sign, X) with S_i T_j = sign X in the bi-quaternion table (0-based
    i, j), X read from the store: -unit for i = j, else e_ijk fam_k.  unit
    is None (Id) and fam "J" for I_i I_j and J_i J_j; unit is "G" and fam
    "I" for I_i J_j and J_i I_j."""
    if i == j:
        return -1, unit and store[unit]
    k = 3 - i - j
    return levi_civita(i + 1, j + 1, k + 1), store[f"{fam}{k + 1}"]


def theorem_1_1_families(T: CliffordTriple, ind: InducedStructures):
    """The 21 distinct tensor families N(I_i,I_j), N(J_i,J_j) (i <= j) and
    N(I_i,J_j) (all i, j, row by row), bound against the triple's flux.
    Each family carries its structures' records in T's numerator store
    (``BoundTensor.numerators``), and, when ind's table is verified, its
    products I J, J I and their sum as read off the table
    (``_table_product``), so its setup builds no numerators and multiplies
    or adds no matrices."""
    store = _store(T)
    S = {"I": T.generators, "J": ind.J}

    def bind(a, b, i, j, unit, fam):
        # S T = s X and T S = t X, so S T + T S = (s + t) X
        (s, X), (t, _) = (_table_product(store, i, j, unit, fam),
                          _table_product(store, j, i, unit, fam))
        products = ((s, X), (t, X), (s + t, X)) if ind.table_ok else ()
        A, B = f"{a}{i + 1}", f"{b}{j + 1}"
        return BoundTensor("concomitant", f"N({A},{B})", (S[a][i], S[b][j]),
                           T.flux, products, (store[A], store[B]))
    fams = [bind(a, a, i, j, None, "J") for a in "IJ"
            for i in range(3) for j in range(i, 3)]
    return fams + [bind("I", "J", i, j, "G", "I")
                   for i in range(3) for j in range(3)]


def _commuting_family_report(fam, degree_bound: int | None,
                             max_witnesses: int = 10,
                             partner=None) -> TensorReport:
    """Check a concomitant N(I, J) of commuting I and J against what its
    Leibniz symbol allows; the report's identity names the check, and
    ``gcs._commuting_symbol`` proves which pairs decide it:

    - "anomaly_matched", when W = I J is constant: N must equal the
      closed-form Dorfman-Leibniz defect
      N(I,J)(f u, g v) = 2g(<u,v> W df - <u,W v> df), u and v frame
      sections (``defect`` below), on every generator pair.  When I and J
      are skew-adjoint the residual is C-infinity-bilinear
      and skew, and the certificate takes the frame pairs a < b (28 at
      n = 4), where Df = 0 makes the residual N itself.  Otherwise the
      residual is first order in each argument with no df.dg term, like N,
      and defect(i, j) only multiplies by the second generator's monomial,
      so it keeps N's Q_k = 0 and the 2n * 2n * (1 + n) pairs (320).
    - "difference", when W is not constant and partner N(I', J') has
      I' J' = W: N(I',J') - N(I,J) must vanish; it is C-infinity-bilinear
      and skew, so the certificate takes the 28 frame pairs a < b.  The
      report is named "N(I',J')-N(I,J)".
    - "vanishes" otherwise: there is no closed form, and N itself must
      vanish (``gcs.vanishes``).

    An integer degree_bound sweeps every generator pair instead.
    vanished=True means the identity held on every pair evaluated."""
    identity, base, degree, pairs = _commuting_residuals(fam, degree_bound,
                                                         partner)
    name = (f"{partner.name}-{fam.name}" if identity == "difference"
            else fam.name)
    if identity == "anomaly_matched" and degree:
        I, J = fam.structures
        n = I.chart.dim
        W = I @ J
        Wk = _sparse_rows([[f.num.terms for f in row] for row in W.entries],
                          True)
        # per generator m * e_a: (a, m, dm as a pure-covector section, W dm)
        gens = []
        for a in range(2 * n):
            for m in monomials_up_to(I.chart, degree):
                dm = [{}] * n + [K.p_diff(m.terms, t) for t in range(n)]
                gens.append((a, m.terms, dm, K.mat_apply_const(Wk, dm)))
        # <e_a, e_b> = 1/2 iff the frames pair off;
        # <e_a, W e_b> = W_{(a+n)%2n, b}/2

        def defect(i, j):
            a, _, dm, W_dm = gens[i]
            b, mp, _, _ = gens[j]
            c1 = HALF if (a + n) % (2 * n) == b else K.C_ZERO
            c2 = K.c_mul(HALF, W.entries[(a + n) % (2 * n)][b].num.terms.get(
                0, K.C_ZERO))
            return [K.p_scale(K.p_mul(mp, K.p_sub(K.p_scale(wd, c1),
                                                  K.p_scale(d, c2))),
                              (2, 0, 1))
                    for wd, d in zip(W_dm, dm)]

        pairs = ((i, j, K.sec_sub(got, base.lift(defect(i, j), 0, 3)))
                 for i, j, got in pairs)
    return _tensor_report(name, degree_bound, base, degree, pairs,
                          max_witnesses, identity)


def theorem_1_1(T: CliffordTriple, degree_bound: int | None = None,
                max_witnesses: int = 10, mode: str = "verify") -> SuiteReport:
    """Verify simultaneous integrability of the whole induced family.

    Precondition: each generator's own Nijenhuis tensor already verified zero
    (an unverified triple yields an inconclusive report, not a failure).

    Each family is decided by the Leibniz-symbol certificate (degree_bound
    None, the default), so a pass holds for all smooth sections; an integer
    degree_bound sweeps all generator pairs up to that monomial degree
    instead, as a cross-check.  The report note names the method.

    The verified multiplication table fixes which families commute (module
    docstring), and each family's setup reads its products I J and J I off
    that table (``theorem_1_1_families``), so no matrix is multiplied
    here.  The 12 anticommuting families have IJ + JI = 0 and are
    C-infinity-bilinear and skew (``gcs.vanishes``): they must vanish, and
    the certificate takes the 2n(2n - 1)/2 frame pairs a < b (28 at
    n = 4).  The 9 commuting families -- the self-pairs N(I_i, I_i),
    N(J_i, J_i) and the diagonal pairs N(I_i, J_i) -- go through
    ``_commuting_family_report``.  Their first slot keeps the Leibniz term
    2g(<A,B> W - <A,WB>) Df with W = IJ (``gcs._commuting_symbol``), which
    is zero for the self-pairs (W = -Id) but not for the diagonal pairs,
    where W = I_i J_i = -G by the induced multiplication table.  So with
    mode="verify" (default):

    - G constant (every constant triple): all 9 are checked exactly
      against the closed-form defect (``_commuting_family_report``) and
      classified anomaly_matched; the gate proves the residual
      C-infinity-bilinear and skew, and the frame pairs a < b decide it:
      28 pairs each.
    - G not constant: N(I_i, J_i) on a frame depends on the frame, so the
      diagonal families are compared with each other instead.  They share
      W = -G, so Delta_12 = N(I1,J1) - N(I2,J2) and Delta_13 are
      C-infinity-bilinear and skew, and 28 pairs decide each; they are
      reported as "N(I1,J1)-N(I2,J2)" and "N(I1,J1)-N(I3,J3)", and
      N(I1,J1) gets no report of its own unless a difference is not proven
      (then it is checked alone).  Theorem 1.2's 24 families force both
      differences to vanish.

    mode="strict" demands literal vanishing of every family, which fails
    on monomial layers for the diagonal pairs of any constant triple with
    nondegenerate induced G.

    Checks the forward direction; the reverse is the containment of the
    generator conditions in the full family, restated in the report note.
    """
    if not T.status.verified:
        return SuiteReport(
            "theorem_1_1", "inconclusive", [],
            "precondition not verified: run verify_triple first "
            "(relations and per-generator integrability)")
    ind = induce(T)
    if not ind.table_ok:
        return SuiteReport("theorem_1_1", "fail", [],
                           "induced multiplication table failed")
    fams = theorem_1_1_families(T, ind)
    ref = (fams[_DIAGONAL[0]]
           if mode == "verify" and not _store(T)["G"].const else None)
    reports, compared = [], []
    for k, fam in enumerate(fams):
        if fam is ref:
            continue
        if mode == "verify" and k in _COMMUTING:
            rep = _commuting_family_report(
                fam, degree_bound, max_witnesses,
                ref if k in _DIAGONAL else None)
        else:
            rep = vanishes(fam, degree_bound, max_witnesses)
        if k in _DIAGONAL:
            compared.append(rep.identity == "difference")
        reports.append(rep)
    if ref is not None and not all(compared):
        reports.insert(_DIAGONAL[0], _commuting_family_report(
            ref, degree_bound, max_witnesses))
    ok = all(r.vanished for r in reports)
    method = ("the Leibniz-symbol certificate (all smooth sections)"
              if degree_bound is None else
              f"a sweep of generators of monomial degree <= {degree_bound}")
    note = (f"forward direction checked by {method}; the reverse is the "
            "containment of the generator conditions in the full family")
    differences = [r.name for r in reports if r.identity == "difference"]
    if differences:
        note += ("; diagonal families, which share W = -G (not constant), "
                 "compared with each other: " + ", ".join(differences))
    matched = [r.name for r in reports if r.identity == "anomaly_matched"]
    if matched:
        note += ("; commuting families checked against the exact "
                 "Dorfman-Leibniz anomaly (non-tensorial): "
                 + ", ".join(matched))
    return SuiteReport("theorem_1_1", "pass" if ok else "fail", reports, note)
