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

from .scalar import Chart, ScalarField
from .courant import (FluxForm, Section, dorfman_twisted, frame_sections,
                      monomials_up_to)
from .gcs import EndField, _flux_eq
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
        # Phi^T P Phi = P with P = [[0, Id],[Id, 0]]/2
        for i in range(size):
            for j in range(size):
                acc = Fraction(0)
                for k in range(size):
                    acc += M[k][i] * M[(k + n) % size][j]
                want = Fraction(1, 2) if (i + n) % size == j else Fraction(0)
                if acc * Fraction(1, 2) != want:
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


def check_intertwine(phi: CourantIso, degree_bound: int = 2,
                     max_witnesses: int = 10) -> IntertwineReport:
    """Phi([A,B]_H) = [Phi A, Phi B]_H~ for all pairs from frame x monomials
    of degree <= degree_bound in the NON-dualized coordinates."""
    chart = phi.chart
    monos = [m for m in monomials_up_to(chart, degree_bound)
             if all(not any(mono[k] for k in phi.invariant_coords)
                    for mono in m.terms)]
    gens = []
    labels = []
    frames = [f"d{i + 1}" for i in range(chart.dim)] + \
             [f"e{i + 1}" for i in range(chart.dim)]
    for a, e in enumerate(frame_sections(chart)):
        for m in monos:
            s = e.scale(ScalarField.from_poly(m))
            if not phi.is_invariant_section(s):
                raise NonInvariantSectionError(
                    f"test section {m}*{frames[a]} varies along a dualized "
                    "coordinate")
            gens.append(s)
            labels.append(f"{m}*{frames[a]}" if str(m) != "1" else frames[a])
    rep = IntertwineReport(True, 0)
    for i, A in enumerate(gens):
        for j, B in enumerate(gens):
            lhs = phi.apply(dorfman_twisted(A, B, phi.source_flux))
            rhs = dorfman_twisted(phi.apply(A), phi.apply(B),
                                  phi.target_flux)
            rep.checks += 1
            if lhs != rhs:
                rep.ok = False
                rep.witnesses.append((labels[i], labels[j],
                                      str(lhs - rhs)))
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
    sides independently on invariant sections."""
    from .gcs import concomitant
    if not (phi.is_invariant_section(A) and phi.is_invariant_section(B)):
        raise NonInvariantSectionError("sections vary along a dualized "
                                       "coordinate")
    It, Jt = conjugate(phi, I), conjugate(phi, J)
    lhs = concomitant(It, Jt, phi.apply(A), phi.apply(B), phi.target_flux)
    rhs = phi.apply(concomitant(I, J, A, B, phi.source_flux))
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
