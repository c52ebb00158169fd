"""Flat-torus T-duality: orthogonal Courant isomorphisms, the bracket
intertwining check on invariant sections, and transport of Clifford triples,
induced structures and the rotated family by conjugation.

The desk-scale duality is the frame swap along one circle direction with
H = H~ = 0; the intertwining identity is verified on sections constant along
the dualized coordinate (the regime where the naive swap is an isomorphism of
Courant algebroids), and non-invariant test sections are rejected with a
diagnostic.  Nontrivial flux dualities are an extension point, not
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._core import kernel as K
from .scalar import Chart, ScalarField
from .courant import FluxForm, Section, monomials_up_to
from .gcs import (EndField, _PowerDen, _flux_eq, bind_concomitant,
                  generator_degree, kernel_evaluate)
from .clifford import CliffordTriple, check_relations, induce
from .twistor import rotate_family


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

    def is_invariant_section(self, A: Section) -> bool:
        for f in A.to_components():
            for k in self.invariant_coords:
                if not f.diff(k).is_zero:
                    return False
        return True

    def is_invariant_end(self, E: EndField) -> bool:
        for row in E.entries:
            for f in row:
                for k in self.invariant_coords:
                    if not f.diff(k).is_zero:
                        return False
        return True


def _is_orthogonal(M, n):
    """Phi^T P Phi = P with P = [[0, Id],[Id, 0]]/2, exactly."""
    size = 2 * n
    return all(sum(M[k][i] * M[(k + n) % size][j] for k in range(size))
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


@dataclass
class IntertwineReport:
    ok: bool
    checks: int
    witnesses: list = field(default_factory=list)


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
                     max_witnesses: int = 10) -> IntertwineReport:
    """Phi([A,B]_H) = [Phi A, Phi B]_H~ on sections invariant along the
    dualized coordinates, checked exactly on the kernel's Dorfman bracket
    over the generators m * e_a, m a monomial in the non-dualized
    coordinates.

    With degree_bound None (the default) this is a certificate for all
    invariant sections.  When ``_tensorial`` proves Delta = Phi[A,B] -
    [Phi A, Phi B] C-infinity-bilinear and skew, the frame pairs (e_a, e_b)
    with a < b decide it: n(2n - 1) pairs (28 at n = 4).  Otherwise the
    pairs of total monomial degree <= 1 do: both Leibniz rules are first
    order and [fA, gB] has no df.dg term, so, Phi being constant,

        Delta(f e_a, g e_b) = fg Delta_0 + g sum_k d_k f P_k
                              + f sum_k d_k g Q_k

    over the non-dualized k, and Delta_0, P_k and Q_k are read from the
    pairs (e_a, e_b), (x_k e_a, e_b) and (e_a, x_k e_b).  An integer
    degree_bound sweeps every ordered pair of generators of degree <=
    degree_bound instead, as an opt-in cross-check.  Witnesses, in the
    fixed generator order, are capped at max_witnesses."""
    chart = phi.chart
    n = chart.dim
    tensorial = degree_bound is None and _tensorial(phi)
    degree = 0 if tensorial else generator_degree(degree_bound)
    monos = [m for m in monomials_up_to(chart, degree)
             if not any(K.exponent(e, k) for e in m.terms
                        for k in phi.invariant_coords)]
    frames = [f"d{i + 1}" for i in range(n)] + [f"e{i + 1}" for i in range(n)]
    gens, labels, linear = [], [], []
    for a, fr in enumerate(frames):
        for m in monos:
            sec = [{} for _ in range(2 * n)]
            sec[a] = dict(m.terms)
            gens.append(sec)
            ms = str(m)
            labels.append(fr if ms == "1" else f"{ms}*{fr}")
            linear.append(ms != "1")

    # a sweep keeps every pair, the tensorial certificate the pairs a < b,
    # the fallback the pairs of total degree <= 1
    def keep(i, j):
        if degree_bound is not None:
            return True
        return i < j if tensorial else not (linear[i] and linear[j])

    fluxes = [{} if F is None else F.H.coeffs
              for F in (phi.source_flux, phi.target_flux)]
    base = _PowerDen.lcm(chart, [f for H in fluxes for f in H.values()])
    Hs, Ht = ({idx: base.numerator(f) for idx, f in H.items()} or None
              for H in fluxes)
    M = [[(j, (Fraction(v).numerator, 0, Fraction(v).denominator))
          for j, v in enumerate(row) if v] for row in phi.matrix]
    # (section, Jacobian) of each generator and of its image, built once;
    # brackets are numerators over m^1 of the fluxes' base m
    ops = [(A, base.jacobian(A, 0)) for A in gens]
    imgs = [(P, base.jacobian(P, 0))
            for P in (K.mat_apply_const(M, A) for A in gens)]
    rep = IntertwineReport(True, 0)
    for i, (A, dA) in enumerate(ops):
        for j, (B, dB) in enumerate(ops):
            if not keep(i, j):
                continue
            lhs = K.mat_apply_const(M, K.sec_dorfman(n, A, B, Hs, dA, dB))
            (PA, dPA), (PB, dPB) = imgs[i], imgs[j]
            out = K.sec_sub(lhs, K.sec_dorfman(n, PA, PB, Ht, dPA, dPB))
            rep.checks += 1
            if not K.sec_is_zero(out):
                rep.ok = False
                rep.witnesses.append((labels[i], labels[j],
                                      str(base.section(out, 1))))
                if len(rep.witnesses) >= max_witnesses:
                    return rep
    return rep


def conjugate(phi: CourantIso, E: EndField) -> EndField:
    """Phi E Phi^-1 with the flux moved from source to target.

    E must carry the source flux and be constant along the dualized
    coordinates.
    """
    if not _flux_eq(E.flux, phi.source_flux):
        raise ValueError("structure flux does not match the source flux")
    if not phi.is_invariant_end(E):
        raise NonInvariantSectionError(
            "structure varies along a dualized coordinate")
    P = phi.as_endfield()
    Pinv = P.inverse()
    out = P @ E @ Pinv
    return EndField(phi.chart, out.entries, phi.target_flux)


def conjugate_triple(phi: CourantIso, T: CliffordTriple) -> CliffordTriple:
    gens = [conjugate(phi, E) for E in T.generators]
    return CliffordTriple(gens[0], gens[1], gens[2], phi.target_flux)


def lemma_5_1_instance(phi: CourantIso, I: EndField, J: EndField,
                       A: Section, B: Section) -> bool:
    """N_H~(I~, J~)(Phi A, Phi B) = Phi(N_H(I, J)(A, B)) computed from both
    sides independently on invariant sections, by the kernel evaluator for
    polynomial sections (``gcs.kernel_evaluate``)."""
    if not (phi.is_invariant_section(A) and phi.is_invariant_section(B)):
        raise NonInvariantSectionError("sections vary along a dualized "
                                       "coordinate")
    It, Jt = conjugate(phi, I), conjugate(phi, J)
    lhs = kernel_evaluate(bind_concomitant(It, Jt, flux=phi.target_flux),
                          phi.apply(A), phi.apply(B))
    rhs = phi.apply(kernel_evaluate(
        bind_concomitant(I, J, flux=phi.source_flux), A, B))
    return lhs == rhs


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


def props_5_2_to_5_4(phi: CourantIso, T: CliffordTriple, points,
                     degree_bound: int | None = None) -> TDualityReport:
    """(a) the conjugated triple is again a (twisted) Clifford triple
    (relations + integrability by ``verify_triple``: the symbol certificate,
    or a sweep for an integer degree_bound); (b) induce commutes with
    conjugation, including G~ = Phi G Phi^-1; (c, d) the rotated family
    commutes with conjugation at every supplied twistor point."""
    from .clifford import verify_triple
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
    record("prop_5_3: J1 transported",
           indt.J1.entries_equal(conjugate(phi, ind.J1)))
    record("prop_5_3: J2 transported",
           indt.J2.entries_equal(conjugate(phi, ind.J2)))
    record("prop_5_3: J3 transported",
           indt.J3.entries_equal(conjugate(phi, ind.J3)))
    record("prop_5_3: G transported",
           indt.G.entries_equal(conjugate(phi, ind.G)))
    for p in points:
        R = rotate_family(T, p)
        Rt = rotate_family(Tt, p)
        ok = all(Rt.generators[i].entries_equal(
            conjugate(phi, R.generators[i])) for i in range(3))
        record(f"prop_5_4: rotation commutes at {p}", ok)
    record("cor_5_5: family checked at >= 5 points", len(points) >= 5)
    return rep
