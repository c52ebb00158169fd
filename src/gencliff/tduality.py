"""Flat-torus T-duality: orthogonal Courant isomorphisms, the bracket
intertwining check on invariant sections, and transport of Clifford triples,
induced structures and the rotated family (through its six sector
generators) by conjugation.

The desk-scale duality is the frame swap along one circle direction with
H = H~ = 0; the intertwining identity is verified on sections constant along
the dualized coordinate (the regime where the naive swap is an isomorphism of
Courant algebroids), and structures that vary along it are rejected with a
diagnostic.  Lemma 5.1, the transport of every Nijenhuis-type tensor, follows
from the intertwine certificate and the conjugation (``check_intertwine``).
Nontrivial flux dualities are an extension point, not implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._core import kernel as K
from .scalar import Chart, ScalarField
from .courant import FluxForm, Section
from .gcs import (EndField, TensorReport, _PowerDen, _flux_eq, _pair_plan,
                  _tensor_report)
from .clifford import (CliffordTriple, check_relations, induce, project,
                       verify_triple)


class NonInvariantSectionError(ValueError):
    pass


@dataclass(frozen=True)
class CourantIso:
    """Constant orthogonal bundle isomorphism between (chart, source_flux)
    and (chart, target_flux), remembering which coordinates were dualized."""

    chart: Chart
    matrix: tuple                 # 2n x 2n of Fraction
    source_flux: FluxForm | None
    target_flux: FluxForm | None
    invariant_coords: frozenset

    def __post_init__(self):
        n = self.chart.dim
        size = 2 * n
        M = self.matrix
        if len(M) != size or any(len(r) != size for r in M):
            raise ValueError("matrix must be 2n x 2n")
        if not _is_orthogonal(M, n):
            raise ValueError("isomorphism is not orthogonal")

    def as_endfield(self, flux=None) -> EndField:
        return EndField(self.chart,
                        [[ScalarField.constant(self.chart, v) for v in row]
                         for row in self.matrix], flux)

    @cached_property
    def conjugators(self):
        """(Phi, Phi^-1) as constant kernel matrices (rows of (column,
        coefficient) pairs, zero entries omitted), built once per
        isomorphism.  Phi is orthogonal (checked on construction):
        Phi^T P Phi = P with P = S/2, S the swap of the vector and covector
        halves, so Phi^-1 = S Phi^T S exactly, entry (i, j) being
        Phi[(j + n) % 2n][(i + n) % 2n]."""
        n = self.chart.dim
        size = 2 * n
        M = self.matrix

        def rows(entry):
            return [[(j, (v.numerator, 0, v.denominator)) for j in range(size)
                     for v in (Fraction(entry(i, j)),) if v]
                    for i in range(size)]
        return (rows(lambda i, j: M[i][j]),
                rows(lambda i, j: M[(j + n) % size][(i + n) % size]))

    def apply(self, A: Section) -> Section:
        comps = A.to_components()
        out = []
        for row in self.matrix:
            acc = ScalarField.zero(self.chart)
            for v, c in zip(row, comps):
                if v and not c.is_zero:
                    acc = acc + c * v
            out.append(acc)
        return Section.from_components(self.chart, out)

    def is_invariant_end(self, E: EndField) -> bool:
        for row in E.entries:
            for f in row:
                for k in self.invariant_coords:
                    if not f.diff(k).is_zero:
                        return False
        return True


def _is_orthogonal(M, n):
    """Phi^T P Phi = P with P = [[0, Id],[Id, 0]]/2, exactly; the sums run
    over the nonzero entries of each column of Phi."""
    size = 2 * n
    cols = [[k for k in range(size) if M[k][i]] for i in range(size)]
    return all(sum(M[k][i] * M[(k + n) % size][j] for k in cols[i])
               == int((i + n) % size == j)
               for i in range(size) for j in range(size))


def make_torus_duality(chart: Chart, dual_index: int) -> CourantIso:
    """Swap the d_k and dx^k frame directions for k = dual_index (identity
    elsewhere); source and target fluxes are both zero."""
    n = chart.dim
    if not 0 <= dual_index < n:
        raise IndexError("dual index out of range")
    size = 2 * n
    M = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        M[i][i] = Fraction(1)
    M[dual_index][dual_index] = Fraction(0)
    M[n + dual_index][n + dual_index] = Fraction(0)
    M[dual_index][n + dual_index] = Fraction(1)
    M[n + dual_index][dual_index] = Fraction(1)
    return CourantIso(chart, tuple(tuple(r) for r in M),
                      FluxForm.zero(chart), FluxForm.zero(chart),
                      frozenset({dual_index}))


def _tensorial(phi: CourantIso) -> bool:
    """Whether Delta(A, B) = Phi[A,B]_H - [Phi A, Phi B]_H~ is proven
    C-infinity-bilinear over invariant functions and skew, decided exactly
    on Phi's constant matrix: H = H~ = 0, Phi is orthogonal, the vector
    part of Phi e_a - e_a lies in span{d_k : k dualized} for every a, and
    Phi dx^j = dx^j for every j that is not dualized.

    For functions f, g and sections A, B constant along the dualized
    coordinates, the Leibniz rules [A, gB] = g[A,B] + (rho(A)g)B and
    [fA, B] = f[A,B] - (rho(B)f)A + 2<A,B>Df, and [A,B] + [B,A] =
    2D<A,B>, give, for constant Phi,

        Delta(A, gB)  = g Delta(A,B) + (rho(A - Phi A) g) Phi B
        Delta(fA, B)  = f Delta(A,B) + (rho(Phi B - B) f) Phi A
                        + 2 <A,B> Phi Df - 2 <Phi A, Phi B> Df
        Delta(A, B) + Delta(B, A) = 2 Phi D<A,B> - 2 D<Phi A, Phi B>.

    rho(Phi A - A) is a combination of the dualized d_k, which kill
    invariant functions; Df and D<A,B> have dx^j components only for j not
    dualized, which Phi fixes; and <Phi A, Phi B> = <A,B>.  So every extra
    term vanishes, and an invariant section being sum_a f_a e_a with
    invariant f_a, the frame pairs (e_a, e_b) with a < b decide Delta."""
    n = phi.chart.dim
    M = phi.matrix
    size = 2 * n
    free = [j for j in range(n) if j not in phi.invariant_coords]
    return (_flux_eq(phi.source_flux, None)
            and _flux_eq(phi.target_flux, None)
            and _is_orthogonal(M, n)
            and all(M[r][a] == int(r == a) for a in range(size) for r in free)
            and all(M[r][n + j] == int(r == n + j)
                    for j in free for r in range(size)))


def check_intertwine(phi: CourantIso, degree_bound: int | None = None,
                     max_witnesses: int = 10) -> TensorReport:
    """Phi([A,B]_H) = [Phi A, Phi B]_H~ on sections invariant along the
    dualized coordinates, checked exactly on the kernel's Dorfman bracket
    over the generators m * e_a, m a monomial in the non-dualized
    coordinates.

    With degree_bound None (the default) this is a certificate for all
    invariant sections.  When ``_tensorial`` proves Delta = Phi[A,B] -
    [Phi A, Phi B] C-infinity-bilinear and skew, the frame pairs (e_a, e_b)
    with a < b decide it: n(2n - 1) pairs (28 at n = 4).  Otherwise the
    pairs of total monomial degree <= 1 do, by the argument for the
    Nijenhuis-type tensors (``gcs`` module docstring, ``gcs._pair_plan``):
    both Leibniz rules are first order, [fA, gB] has no df.dg term and Phi
    is constant, so Delta(f e_a, g e_b) = fg Delta_0 + g sum_k d_k f P_k +
    f sum_k d_k g Q_k over the non-dualized k.  An integer degree_bound
    sweeps every ordered pair of generators of degree <= degree_bound
    instead, as an opt-in cross-check.  The pairs are those of
    ``gcs._pair_plan`` whose monomials leave out the dualized coordinates,
    and the TensorReport ("intertwine") counts them in sample_count, with
    at most max_witnesses witnesses in the fixed generator order, their
    values over m, the base of the fluxes.

    Lemma 5.1 is not checked apart: it follows.  Let I, J be invariant
    structures, I~ = Phi I Phi^-1 and J~ = Phi J Phi^-1 (``conjugate``).
    The concomitant N_H(I, J)(A, B) is a sum of terms X[Y A, Z B]_H with
    X, Y, Z products of I, J and Id; for invariant A, B the sections YA, ZB
    are invariant, so Phi X[YA, ZB]_H = X~[Y~ Phi A, Z~ Phi B]_H~ term by
    term, and N_H~(I~, J~)(Phi A, Phi B) = Phi N_H(I, J)(A, B) on every
    invariant pair.  One instance of it proves strictly less."""
    chart = phi.chart
    n = chart.dim
    proven = "skew" if degree_bound is None and _tensorial(phi) else None
    degree, gens, todo = _pair_plan(chart, degree_bound, proven)
    invariant = [not any(K.exponent(m, k) for p in A for m in p
                         for k in phi.invariant_coords) for A in gens]
    todo = [(i, j) for i, j in todo if invariant[i] and invariant[j]]
    fluxes = [{} if F is None else F.H.coeffs
              for F in (phi.source_flux, phi.target_flux)]
    base = _PowerDen.lcm(chart, [f for H in fluxes for f in H.values()])
    Hs, Ht = ({idx: base.numerator(f) for idx, f in H.items()} or None
              for H in fluxes)
    M = phi.conjugators[0]
    ops = {}

    def operands(k):
        # (section, Jacobian) of a generator and of its image, built once
        if k not in ops:
            A = gens[k]
            PA = K.mat_apply_const(M, A)
            ops[k] = (A, base.jacobian(A, 0)), (PA, base.jacobian(PA, 0))
        return ops[k]

    def pairs():
        # brackets are numerators over m^1
        for i, j in todo:
            ((A, dA), (PA, dPA)), ((B, dB), (PB, dPB)) = \
                operands(i), operands(j)
            lhs = K.mat_apply_const(M, K.sec_dorfman(n, A, B, Hs, dA, dB))
            yield i, j, K.sec_sub(lhs, K.sec_dorfman(n, PA, PB, Ht, dPA, dPB))
    return _tensor_report("intertwine", degree_bound, base, degree, pairs(),
                          max_witnesses, power=1)


def conjugate(phi: CourantIso, E: EndField) -> EndField:
    """Phi E Phi^-1 with the flux moved from source to target.

    E must carry the source flux and be constant along the dualized
    coordinates.  The product is taken on E's numerators over their base
    (``gcs._PowerDen.lcm``; the unit base for polynomial entries), which
    Phi and Phi^-1 (``CourantIso.conjugators``), constant, combine as
    sparse rows; each entry of the result is normalized once.
    """
    if not _flux_eq(E.flux, phi.source_flux):
        raise ValueError("structure flux does not match the source flux")
    if not phi.is_invariant_end(E):
        raise NonInvariantSectionError(
            "structure varies along a dualized coordinate")
    P, Pinv = phi.conjugators
    base = _PowerDen.lcm(phi.chart, [f for row in E.entries for f in row])
    N = base.numerators(E)
    size = len(N)
    out = [[{} for _ in range(size)] for _ in range(size)]
    for i, prow in enumerate(P):
        # row i of Phi N, then its product with Phi^-1
        PN = [{} for _ in range(size)]
        for k, c in prow:
            for l, p in enumerate(N[k]):
                if p:
                    PN[l] = K.p_add(PN[l], K.p_scale(p, c))
        for l, p in enumerate(PN):
            if p:
                for j, c in Pinv[l]:
                    out[i][j] = K.p_add(out[i][j], K.p_scale(p, c))
    return base.endfield(out, 1, phi.target_flux)


def conjugate_triple(phi: CourantIso, T: CliffordTriple) -> CliffordTriple:
    gens = [conjugate(phi, E) for E in T.generators]
    return CliffordTriple(gens[0], gens[1], gens[2], phi.target_flux)


@dataclass
class TDualityReport:
    status: str
    checks: list = field(default_factory=list)   # (name, ok)
    note: str = ""

    @property
    def ok(self):
        return self.status == "pass"

    def witnesses(self):
        return [name for name, ok in self.checks if not ok]


def props_5_2_to_5_4(phi: CourantIso, T: CliffordTriple,
                     degree_bound: int | None = None) -> TDualityReport:
    """(a) the conjugated triple is again a (twisted) Clifford triple
    (relations + integrability by ``verify_triple``: the symbol certificate,
    or a sweep for an integer degree_bound); (b) induce commutes with
    conjugation, including G~ = Phi G Phi^-1; (c, d) the rotated family
    commutes with conjugation at every twistor point.

    (c, d) is decided on the six sector generators: K_i(zeta) = sum_l t_il
    I_l^+ + s_il I_l^- with constant t, s at each point, and conjugation is
    linear, so Phi K_i(zeta) Phi^-1 = K~_i(zeta) for every zeta iff
    Phi I_l^+- Phi^-1 = I~_l^+- for l = 1, 2, 3: the rows of t and of s
    span R^3."""
    rep = TDualityReport("pass")

    def record(name, ok):
        rep.checks.append((name, ok))
        if not ok:
            rep.status = "fail"

    if not T.status.relations_ok:
        record("source relations verified", False)
        return rep
    Tt = conjugate_triple(phi, T)
    relt = check_relations(Tt)
    record("prop_5_2: dual relations", relt.ok)
    if not relt.ok:
        return rep
    Tt = verify_triple(Tt, degree_bound)
    record("prop_5_2: dual integrability", Tt.status.integrable)
    ind = induce(T)
    indt = induce(Tt)
    for name, E, Et in zip(("J1", "J2", "J3", "G"), ind.J + (ind.G,),
                           indt.J + (indt.G,)):
        record(f"prop_5_3: {name} transported",
               Et.entries_equal(conjugate(phi, E)))
    proj, projt = project(ind, T), project(indt, Tt)
    for l in range(3):
        for sign, E, Et in (("+", proj.Ip, projt.Ip),
                            ("-", proj.Im, projt.Im)):
            record(f"prop_5_4: I{l + 1}{sign} transported",
                   Et[l].entries_equal(conjugate(phi, E[l])))
    return rep
