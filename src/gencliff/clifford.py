"""Rank-3 generalized Clifford triples: relation checking, the induced
bi-quaternion structures (J_i, G), the projections (G+-, I_i+-), and the
simultaneous-integrability suite.

The model hardcodes three generators (the rank-3 case); general rank-r is an
extension point, not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalar import ChartMismatchError, ScalarField
from .courant import FluxForm
from .gcs import (EndField, TensorReport, bind_concomitant,
                  bind_nijenhuis, is_orthogonal, vanishes)

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

    ``induce`` and ``project`` cache their results on the triple; a triple
    made by ``with_status`` starts with an empty cache.
    """

    __slots__ = ("chart", "I1", "I2", "I3", "flux", "status", "_induced",
                 "_projections")

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
        self._induced = None
        self._projections = None

    @property
    def generators(self):
        return (self.I1, self.I2, self.I3)

    def with_status(self, status):
        return CliffordTriple(self.I1, self.I2, self.I3, self.flux, status)

    def __repr__(self):
        return (f"CliffordTriple(dim={self.chart.dim}, "
                f"verified={self.status.verified})")


def check_relations(T: CliffordTriple) -> RelationsReport:
    """Verify I_i I_j + I_j I_i = -2 delta_ij Id for all six unordered pairs,
    plus orthogonality of each generator (every check exact)."""
    chart = T.chart
    gens = T.generators
    checks = []
    minus2 = EndField.identity(chart).scale(ScalarField.constant(chart, -2))
    for i in range(3):
        for j in range(i, 3):
            anti = (gens[i] @ gens[j]) + (gens[j] @ gens[i])
            if i == j:
                ok = anti.entries_equal(minus2)
                checks.append(RelationCheck(f"I{i+1}^2 = -Id", ok))
            else:
                checks.append(RelationCheck(
                    f"I{i+1} I{j+1} + I{j+1} I{i+1} = 0", anti.is_zero))
    for i, E in enumerate(gens):
        checks.append(RelationCheck(f"I{i+1} orthogonal", is_orthogonal(E)))
    checks = tuple(checks)
    return RelationsReport(checks, all(c.ok for c in checks))


def verify_triple(T: CliffordTriple,
                  degree_bound: int | None = None) -> CliffordTriple:
    """Run relations plus per-generator integrability (``gcs.vanishes``: the
    symbol certificate by default, a sweep for an integer degree_bound);
    returns a new triple carrying the verification status.

    The certificate evaluates each N(Ii,Ii) on the 2n(2n - 1)/2 frame pairs
    a < b (28 at n = 4) when Ii^2 = -Id holds exactly and Ii is
    skew-adjoint for the pairing, which make N(Ii,Ii) C-infinity-bilinear
    and skew, less the pairs with a frame element e_b for which
    Ii e_b = +-e_c, c < b (``gcs._frame_representatives``): 6 pairs for
    each generator of ``hyperkahler_r4``.  With Ii^2 = -Id alone it takes
    2n * 2n * (1 + n) pairs (320), and 2n * 2n * (1 + 2n) (576) otherwise,
    since only then does the second slot's Leibniz term
    (rho(A)g)(Ii^2 + 1)B vanish.

    The three reports share 10 witnesses: a generator gets the budget the
    earlier ones left, and once it is spent the remaining generators are not
    evaluated and get no report -- the triple has already failed."""
    rel = check_relations(T)
    reports = []
    for i, E in enumerate(T.generators):
        cap = 10 - sum(len(r.witnesses) for r in reports)
        if cap <= 0:
            break
        reports.append(vanishes(
            bind_nijenhuis(E, f"N(I{i+1},I{i+1})", T.flux), degree_bound,
            cap))
    return T.with_status(TripleStatus(rel, tuple(reports)))


@dataclass(frozen=True)
class InducedStructures:
    """J_i = eps_ijk I_j I_k / 2 and G = -I1 I2 I3, with the verified
    bi-quaternion multiplication table."""

    J1: EndField
    J2: EndField
    J3: EndField
    G: EndField
    table_ok: bool

    @property
    def J(self):
        return (self.J1, self.J2, self.J3)


def induce(T: CliffordTriple) -> InducedStructures:
    """Build the induced structures and verify the full multiplication table:
    I_i I_j = -d_ij + e_ijk J_k,  J_i J_j = -d_ij + e_ijk J_k,
    I_i J_j = J_i I_j = -d_ij G + e_ijk I_k,  G^2 = Id.

    The result is cached on T, so later calls return the same object; the
    relations guard runs on every call."""
    if not T.status.relations_ok:
        raise ValueError("relations not verified; run verify_triple first")
    if T._induced is None:
        T._induced = _induce(T)
    return T._induced


def _induce(T: CliffordTriple) -> InducedStructures:
    chart = T.chart
    I = (None,) + T.generators
    half = ScalarField.constant(chart, Fraction(1, 2))
    J = [None, None, None, None]
    for i in (1, 2, 3):
        acc = None
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = levi_civita(i, j, k)
                if e == 0:
                    continue
                term = (I[j] @ I[k]).scale(half)
                if e < 0:
                    term = -term
                acc = term if acc is None else acc + term
        J[i] = acc
    G = -(I[1] @ I[2] @ I[3])
    ident = EndField.identity(chart)

    def combo(base, i, j, fam):
        out = -base if i == j else None
        for k in (1, 2, 3):
            e = levi_civita(i, j, k)
            if e == 0:
                continue
            t = fam[k] if e > 0 else -fam[k]
            out = t if out is None else out + t
        return out

    ok = (G @ G).entries_equal(ident)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            ok = ok and (I[i] @ I[j]).entries_equal(combo(ident, i, j, J))
            ok = ok and (J[i] @ J[j]).entries_equal(combo(ident, i, j, J))
            ok = ok and (I[i] @ J[j]).entries_equal(combo(G, i, j, I))
            ok = ok and (J[i] @ I[j]).entries_equal(combo(G, i, j, I))
    return InducedStructures(J[1], J[2], J[3], G, ok)


@dataclass(frozen=True)
class Projections:
    """G+- = (Id +- G)/2 and I_i+- = (J_i +- I_i)/2 with the verified
    projection and two-sector quaternion relations."""

    Gp: EndField
    Gm: EndField
    Ip: tuple
    Im: tuple
    identities_ok: bool


def project(ind: InducedStructures, T: CliffordTriple) -> Projections:
    """Split into the two commuting quaternionic sectors and verify:
    (G+-)^2 = G+-, I_i+- I_j+- = -d_ij G+- + e_ijk I_k+-, and every mixed
    +- product vanishes.

    When ind is T's own cached ``induce(T)`` the result is cached on T as
    well; the table guard runs on every call."""
    if not ind.table_ok:
        raise ValueError("induced multiplication table not verified")
    if ind is not T._induced:
        return _project(ind, T)
    if T._projections is None:
        T._projections = _project(ind, T)
    return T._projections


def _project(ind: InducedStructures, T: CliffordTriple) -> Projections:
    chart = T.chart
    half = ScalarField.constant(chart, Fraction(1, 2))
    ident = EndField.identity(chart)
    Gp = (ident + ind.G).scale(half)
    Gm = (ident - ind.G).scale(half)
    I = (None,) + T.generators
    J = (None,) + ind.J
    Ip = tuple((J[i] + I[i]).scale(half) for i in (1, 2, 3))
    Im = tuple((J[i] - I[i]).scale(half) for i in (1, 2, 3))

    ok = (Gp @ Gp).entries_equal(Gp) and (Gm @ Gm).entries_equal(Gm)
    ok = ok and (Gp + Gm).entries_equal(ident)
    for fam, gsec in ((Ip, Gp), (Im, Gm)):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                want = None
                if i == j:
                    want = -gsec
                for k in (1, 2, 3):
                    e = levi_civita(i, j, k)
                    if e == 0:
                        continue
                    t = fam[k - 1] if e > 0 else -fam[k - 1]
                    want = t if want is None else want + t
                ok = ok and (fam[i - 1] @ fam[j - 1]).entries_equal(want)
    for i in (1, 2, 3):
        ok = ok and (Gp @ Im[i - 1]).is_zero and (Gm @ Ip[i - 1]).is_zero
        ok = ok and (Ip[i - 1] @ Gm).is_zero and (Im[i - 1] @ Gp).is_zero
        for j in (1, 2, 3):
            ok = ok and (Ip[i - 1] @ Im[j - 1]).is_zero
            ok = ok and (Im[i - 1] @ Ip[j - 1]).is_zero
    ok = ok and (Gp @ Gm).is_zero and (Gm @ Gp).is_zero
    return Projections(Gp, Gm, Ip, Im, ok)


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


def theorem_1_1_families(T: CliffordTriple, ind: InducedStructures):
    """The 21 distinct tensor families N(I_i,I_j), N(J_i,J_j) (i <= j) and
    N(I_i,J_j) (all i, j), bound against the triple's flux."""
    I = T.generators
    J = ind.J
    fams = []
    for i in range(3):
        for j in range(i, 3):
            fams.append(bind_concomitant(I[i], I[j], f"N(I{i+1},I{j+1})",
                                         T.flux))
    for i in range(3):
        for j in range(i, 3):
            fams.append(bind_concomitant(J[i], J[j], f"N(J{i+1},J{j+1})",
                                         T.flux))
    for i in range(3):
        for j in range(3):
            fams.append(bind_concomitant(I[i], J[j], f"N(I{i+1},J{j+1})",
                                         T.flux))
    return fams


def _commute(A: EndField, B: EndField) -> bool:
    return (A @ B).entries_equal(B @ A)


def concomitant_anomaly(W: EndField, m, a: int, mprime, b: int) -> Section:
    """Closed-form Dorfman-Leibniz defect of the mixed concomitant for a
    CONSTANT commuting orthogonal pair (I, J), W = I J, on the generator pair
    (m * e_a, m' * e_b):

        N(I,J)(f u, g v) = 2 g ( <u,v> W(df) - <u, W v> df ).

    Derived by expanding all eight bracket terms with the Leibniz rules
    [fA,B] = f[A,B] - (rho(B)f) A + 2<A,B> df and [A,gB] = g[A,B] +
    (rho(A)g) B; the section-type terms cancel unconditionally and the df
    terms cancel exactly when I and J anticommute, leaving this expression
    in the commuting case.
    """
    from .cartan import KForm, exterior_d
    from .courant import Section as Sec
    chart = W.chart
    u = Sec.frame(chart, a)
    v = Sec.frame(chart, b)
    mp = ScalarField.from_poly(mprime) if not isinstance(mprime, ScalarField) \
        else mprime
    mf = ScalarField.from_poly(m) if not isinstance(m, ScalarField) else m
    df = Sec.from_form(exterior_d(KForm.from_scalar(mf)))
    from .courant import pairing
    puv = pairing(u, v)
    puWv = pairing(u, W.apply(v))
    out = W.apply(df).scale(puv) - df.scale(puWv)
    return out.scale(mp * ScalarField.constant(chart, 2))


def _commuting_family_report(I: EndField, J: EndField, name: str,
                             degree_bound: int | None, flux,
                             max_witnesses: int = 10) -> TensorReport:
    """Check a commuting constant pair against the anomaly oracle: outputs
    must vanish on frame pairs and equal the closed-form defect on monomial
    pairs.  vanished=True here means 'matched the oracle everywhere'.

    The residual N - anomaly is first order in each argument with no df.dg
    term, like N itself, so the symbol certificate (degree_bound None)
    decides it for all smooth sections.  defect(i, j) only multiplies by
    the second generator's monomial, so the residual keeps N's Q_k = 0 and
    the certificate's 2n * 2n * (1 + n) pairs.  When IJ + JI is a constant
    multiple of Id (the self-pairs N(I,I)) the anomaly is zero and N itself
    is C-infinity-bilinear and skew, so the frame pairs a < b decide it."""
    from ._core import kernel as K
    from .courant import monomials_up_to
    from .gcs import _residuals, _sparse_rows, _tensor_report
    chart = I.chart
    n = chart.dim
    W = I @ J
    Wk = _sparse_rows([[f.num.terms for f in row] for row in W.entries], True)
    base, degree, pairs = _residuals(bind_concomitant(I, J, name, flux),
                                     degree_bound)
    # per generator m * e_a: (a, m, dm as a pure-covector section, W dm)
    gens = []
    for a in range(2 * n):
        for m in monomials_up_to(chart, degree):
            dm = [{}] * n + [K.p_diff(m.terms, t) for t in range(n)]
            gens.append((a, m.terms, dm, K.mat_apply_const(Wk, dm)))
    # <e_a, e_b> = 1/2 iff the frames pair off; <e_a, W e_b> = W_{(a+n)%2n, b}/2
    half = (1, 0, 2)

    def defect(i, j):
        a, _, dm, W_dm = gens[i]
        b, mp, _, _ = gens[j]
        c1 = half if (a + n) % (2 * n) == b else K.C_ZERO
        c2 = K.c_mul(half, W.entries[(a + n) % (2 * n)][b].num.terms.get(
            0, K.C_ZERO))
        return [K.p_scale(K.p_mul(mp, K.p_sub(K.p_scale(wd, c1),
                                              K.p_scale(d, c2))), (2, 0, 1))
                for wd, d in zip(W_dm, dm)]

    return _tensor_report(
        name, degree_bound, base, degree,
        ((i, j, K.sec_sub(got, base.lift(defect(i, j), 0, 3)))
         for i, j, got in pairs), max_witnesses)


def theorem_1_1(T: CliffordTriple, degree_bound: int | None = None,
                max_witnesses: int = 10, mode: str = "verify") -> SuiteReport:
    """Verify simultaneous integrability of the whole induced family.

    Precondition: each generator's own Nijenhuis tensor already verified zero
    (an unverified triple yields an inconclusive report, not a failure).

    Each family is decided by the Leibniz-symbol certificate of
    ``gcs.vanishes`` (degree_bound None, the default), so a pass holds for
    all smooth sections; an integer degree_bound sweeps all generator pairs
    up to that monomial degree instead, as a cross-check.  The report note
    names the method.  Every family is a concomitant, whose second slot's
    Leibniz terms cancel.  For orthogonal I, J with IJ + JI a constant
    multiple of Id -- the 12 anticommuting families and the 6 self-pairs --
    the family is C-infinity-bilinear and skew, and the certificate takes
    the 2n(2n - 1)/2 frame pairs a < b (28 at n = 4); the 3 diagonal pairs
    N(I_i, J_i), where IJ + JI = 2 I_i J_i, take 2n * 2n * (1 + n) (320).

    For a constant triple, the 12 anticommuting-pair families are tensorial
    and must vanish identically.  The 9 commuting families -- the diagonal
    pairs N(I_i, J_i) and the self-pairs N(I_i, I_i), N(J_i, J_i) -- are
    checked another way.  The diagonal pairs are NOT tensorial over the
    Dorfman bracket: with mode="verify" (default) all 9 are checked exactly
    against the closed-form Leibniz defect (``concomitant_anomaly``, zero for
    the self-pairs, where W = +-Id) and classified anomaly_matched; the
    certificate then runs on the residual N - anomaly.  mode="strict" demands
    literal vanishing, which fails on monomial layers for any constant triple
    with nondegenerate induced G.

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
    reports = []
    anomaly_families = []
    for fam in theorem_1_1_families(T, ind):
        I = fam.structures[0]
        J = fam.structures[-1]
        if mode == "verify" and fam.kind == "concomitant" \
                and _commute(I, J) and I.is_constant and J.is_constant:
            reports.append(_commuting_family_report(
                I, J, fam.name, degree_bound, T.flux, max_witnesses))
            anomaly_families.append(fam.name)
        else:
            reports.append(vanishes(fam, degree_bound, max_witnesses))
    ok = all(r.vanished for r in reports)
    method = ("the Leibniz-symbol certificate (all smooth sections)"
              if degree_bound is None else
              f"a sweep of generators of monomial degree <= {degree_bound}")
    note = (f"forward direction checked by {method}; the reverse is the "
            "containment of the generator conditions in the full family")
    if anomaly_families:
        note += ("; commuting families checked against the exact "
                 "Dorfman-Leibniz anomaly (non-tensorial): "
                 + ", ".join(anomaly_families))
    return SuiteReport("theorem_1_1", "pass" if ok else "fail", reports, note)

