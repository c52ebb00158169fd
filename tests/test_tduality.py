"""Flat-torus T-duality: orthogonality, intertwining, conjugation transport."""

from dataclasses import replace
from fractions import Fraction

import pytest

from gencliff.scalar import GaussianRational, ScalarField, standard_chart
from gencliff.cartan import KForm
from gencliff.courant import FluxForm, Section, dorfman
from gencliff.gcs import EndField, generator_labels, is_almost_gcs
from gencliff.clifford import verify_triple
from gencliff.examples import diag_type, hyperkahler_r4
from gencliff.tduality import (CourantIso, NonInvariantSectionError,
                               _tensorial, check_intertwine, conjugate,
                               conjugate_triple, make_torus_duality,
                               props_5_2_to_5_4)
from tests.tduality_oracle import lemma_5_1_instance

R2 = standard_chart(2)
R3 = standard_chart(3)
R4 = standard_chart(4)


class TestConstruction:
    def test_swap_matrix_n1(self):
        chart = standard_chart(1)
        phi = make_torus_duality(chart, 0)
        assert phi.matrix == ((0, 1), (1, 0))

    def test_involution(self):
        phi = make_torus_duality(R3, 0)
        size = 6
        sq = [[sum(phi.matrix[i][k] * phi.matrix[k][j] for k in range(size))
               for j in range(size)] for i in range(size)]
        assert all(sq[i][j] == (1 if i == j else 0)
                   for i in range(size) for j in range(size))

    def test_orthogonality_enforced(self):
        M = [[Fraction(0)] * 6 for _ in range(6)]
        for i in range(6):
            M[i][i] = Fraction(2)
        with pytest.raises(ValueError):
            CourantIso(R3, tuple(tuple(r) for r in M),
                       FluxForm.zero(R3), FluxForm.zero(R3), frozenset())

    def test_index_range(self):
        with pytest.raises(IndexError):
            make_torus_duality(R3, 5)


class TestIntertwine:
    def test_examples(self):
        phi = make_torus_duality(R3, 0)
        # A = d2, B = x2 e3: both sides equal e3 (phi acts as identity here)
        A = Section.frame(R3, 1)
        B = Section.frame(R3, 5).scale(ScalarField.variable(R3, 1))
        lhs = phi.apply(dorfman(A, B))
        rhs = dorfman(phi.apply(A), phi.apply(B))
        assert lhs == rhs == Section.frame(R3, 5)
        # A = d1 + e1 (fixed by phi), B = x2 d1
        A2 = Section.frame(R3, 0) + Section.frame(R3, 3)
        B2 = Section.frame(R3, 0).scale(ScalarField.variable(R3, 1))
        assert phi.apply(A2) == A2
        lhs2 = phi.apply(dorfman(A2, B2))
        rhs2 = dorfman(phi.apply(A2), phi.apply(B2))
        assert lhs2 == rhs2

    def test_sweep_degree_two(self):
        phi = make_torus_duality(R3, 0)
        rep = check_intertwine(phi, 2)
        assert rep.vanished
        assert rep.checks == (6 * 6) ** 2

    def test_constant_pairs_trivial(self):
        phi = make_torus_duality(R3, 0)
        rep = check_intertwine(phi, 0)
        assert rep.vanished and rep.checks == 36

    @pytest.mark.parametrize("chart", [R3, R4], ids=["R3", "R4"])
    def test_certificate_agrees_with_degree_two_sweep(self, chart):
        # the gate proves Delta bilinear and skew for every one-circle
        # swap: the n(2n - 1) frame pairs a < b decide it
        n = chart.dim
        for k in range(n):
            phi = make_torus_duality(chart, k)
            assert _tensorial(phi)
            cert = check_intertwine(phi)
            sweep = check_intertwine(phi, 2)
            assert cert.vanished and sweep.vanished
            assert cert.witnesses == sweep.witnesses == []
            assert cert.checks == n * (2 * n - 1)

    @pytest.mark.parametrize("coords", [frozenset(), frozenset({1})],
                             ids=["emptied", "wrong"])
    @pytest.mark.parametrize("chart", [R3, R4], ids=["R3", "R4"])
    def test_dependence_on_the_dualized_coordinate_fails(self, chart,
                                                         coords):
        # negative control: the swap of x1 with the sections allowed to
        # depend on x1.  The gate declines, and the fallback's pairs of
        # total degree <= 1 fail with the degree-2 sweep's witnesses on
        # those pairs
        n = chart.dim
        phi = replace(make_torus_duality(chart, 0), invariant_coords=coords)
        assert not _tensorial(phi)
        every = (2 * n) ** 2 * (n + 1) ** 2 * (n + 2) ** 2 // 4
        cert = check_intertwine(phi, max_witnesses=every)
        sweep = check_intertwine(phi, 2, max_witnesses=every)
        free = n - len(coords)
        assert cert.checks == (2 * n) ** 2 * (1 + 2 * free)
        assert not cert.vanished and cert.witnesses
        linear = set(generator_labels(chart, 1)) - set(
            generator_labels(chart, 0))
        frames = set(generator_labels(chart, 0))
        assert cert.witnesses == [
            w for w in sweep.witnesses
            if {w[0], w[1]} <= frames | linear
            and not (w[0] in linear and w[1] in linear)]

    def test_non_orthogonal_rejected(self):
        M = [list(r) for r in make_torus_duality(R3, 0).matrix]
        M[1][1] = Fraction(2)
        with pytest.raises(ValueError, match="not orthogonal"):
            CourantIso(R3, tuple(tuple(r) for r in M), FluxForm.zero(R3),
                       FluxForm.zero(R3), frozenset({0}))

    def test_flux_declines_the_gate_and_the_fallback_decides(self):
        # H = dx2^dx3^dx4 is invariant along x1 and has no dx1 leg, so the
        # x1 swap intertwines the H-twisted brackets; the gate asks for
        # zero flux, so the 8 * 8 * (1 + 2 * 3) pairs of total degree <= 1
        # decide it
        H = FluxForm(KForm.basis(R4, (1, 2, 3)))
        phi = CourantIso(R4, make_torus_duality(R4, 0).matrix, H, H,
                         frozenset({0}))
        assert not _tensorial(phi)
        cert = check_intertwine(phi)
        assert cert.vanished and cert.checks == 8 * 8 * (1 + 2 * 3)
        assert check_intertwine(phi, 2).vanished


def flux_swap(k, coeff=None):
    """The swap along x_{k+1} on R4 with source and target flux
    H = coeff dx1^dx2^dx3 (coeff 1 when None)."""
    form = KForm.basis(R4, (0, 1, 2))
    H = FluxForm(form if coeff is None else form.scale(coeff))
    return CourantIso(R4, make_torus_duality(R4, k).matrix, H, H,
                      frozenset({k}))


class TestIntertwineOutput:
    """The pair order, counts and witnesses of the fallback: the x2 swap
    moves a leg of H = dx1^dx2^dx3 and stops at its 10th witness, the x4
    swap does not touch H."""

    def test_x2_swap_fails_with_its_witnesses(self):
        rep = check_intertwine(flux_swap(1))
        assert rep.checks == 22 and len(rep.witnesses) == 10
        assert rep.witnesses[:3] == [("d1", "d2", "-e3"),
                                     ("d1", "x4*d2", "-x4*e3"),
                                     ("d1", "x3*d2", "-x3*e3")]

    def test_witness_over_a_non_unit_base(self):
        x1 = ScalarField.variable(R4, 0)
        one = ScalarField.one(R4)
        rep = check_intertwine(flux_swap(1, one / (one + x1 * x1)))
        assert rep.checks == 22
        assert rep.witnesses[0] == ("d1", "d2", "((-1)/(x1^2 + 1))*e3")

    def test_x4_swap_passes(self):
        rep = check_intertwine(flux_swap(3))
        assert rep.checks == 8 * 8 * (1 + 2 * 3) == 448
        assert rep.witnesses == []


class TestConjugate:
    def test_identity_like(self):
        phi = make_torus_duality(R2, 1)
        E = diag_type(((0, -1), (1, 0)), R2)
        # dualizing x2 for a structure constant in x2 keeps it a GCS
        out = conjugate(phi, E)
        assert is_almost_gcs(out)

    def test_complex_to_symplectic_type(self):
        # the classical T^2 duality: diag-type goes to off-diagonal
        # (symplectic) type under the one-circle swap
        phi = make_torus_duality(R2, 0)
        E = diag_type(((0, -1), (1, 0)), R2)
        out = conjugate(phi, E)
        a, b, c, d = out.blocks()
        assert all(f.is_zero for row in a for f in row)
        assert all(f.is_zero for row in d for f in row)
        assert is_almost_gcs(out)
        # conjugating back recovers the complex type
        back = conjugate(phi, out)
        assert back.entries_equal(E)

    def test_non_invariant_rejected(self):
        phi = make_torus_duality(R2, 0)
        x1 = ScalarField.variable(R2, 0)
        one, zero = ScalarField.one(R2), ScalarField.zero(R2)
        E = EndField(R2, [[x1, zero, zero, one],
                          [zero, zero, one, zero],
                          [zero, one, zero, zero],
                          [one, zero, zero, -x1]])
        with pytest.raises(NonInvariantSectionError):
            conjugate(phi, E)

    def test_flux_mismatch_rejected(self):
        phi = make_torus_duality(R4, 0)
        H = FluxForm(KForm.basis(R4, (1, 2, 3)))
        E = diag_type(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1),
                       (0, 0, 1, 0)), R4, H)
        with pytest.raises(ValueError):
            conjugate(phi, E)


    def test_inverse_is_exact_and_built_once(self):
        # Phi = swap along x1 after e^B, B = 2/3 dx1^dx2 (orthogonal, with a
        # nonzero lower-left block): Phi^-1 = S Phi^T S, as constant kernel
        # rows, equals Gauss-Jordan elimination, and each isomorphism builds
        # both rows once; conjugation on numerators equals the EndField
        # product
        phi = swap_after_bfield()
        P, Pinv = phi.conjugators
        assert phi.conjugators is phi.conjugators
        Pe = phi.as_endfield()
        assert rows_endfield(R2, P).entries_equal(Pe)
        assert rows_endfield(R2, Pinv).entries_equal(Pe.inverse())
        assert not rows_endfield(R2, Pinv).entries_equal(Pe)
        E = diag_type(((0, -1), (1, 0)), R2)
        assert conjugate(phi, E).entries_equal(Pe @ E @ Pe.inverse())

    def test_rational_entries_over_their_integral_base(self):
        # an invariant E with rational entries in x2 is conjugated on its
        # numerators over the integral base L m, m = (1 + x2^2)(x2 + 3):
        # the result equals the EndField product, entry by entry
        phi = swap_after_bfield()
        x2 = ScalarField.variable(R2, 1)
        one = ScalarField.one(R2)
        third = ScalarField.constant(R2, Fraction(1, 3))
        f = one / (one + x2 * x2)
        g = (x2 * third) / (x2 + ScalarField.constant(R2, 3))
        E = EndField(R2, [[f, g, third, one], [x2, f, g, third],
                          [g, one, f, x2 * f], [third, g, one, f]])
        Pe = phi.as_endfield()
        assert conjugate(phi, E).entries_equal(Pe @ E @ Pe.inverse())


def swap_after_bfield():
    """The swap along x1 after e^B, B = 2/3 dx1^dx2, on R2."""
    F = Fraction
    eB = [[F(int(i == j)) for j in range(4)] for i in range(4)]
    eB[2][1], eB[3][0] = F(2, 3), F(-2, 3)
    swap = make_torus_duality(R2, 0).matrix
    M = tuple(tuple(sum(swap[i][k] * eB[k][j] for k in range(4))
                    for j in range(4)) for i in range(4))
    return CourantIso(R2, M, None, None, frozenset({0}))


def rows_endfield(chart, rows):
    """The constant EndField of real kernel rows of (column, (a, 0, d))."""
    size = 2 * chart.dim
    entries = [[ScalarField.zero(chart)] * size for _ in range(size)]
    for i, row in enumerate(rows):
        for j, (a, b, d) in row:
            assert b == 0
            entries[i][j] = ScalarField.constant(chart, Fraction(a, d))
    return EndField(chart, entries)


class TestLemma51:
    def test_transport_identity(self):
        T = verify_triple(hyperkahler_r4(), 0)
        phi = make_torus_duality(R4, 0)
        x2 = ScalarField.variable(R4, 1)
        A = Section.frame(R4, 1).scale(x2)
        B = Section.frame(R4, 6)
        assert lemma_5_1_instance(phi, T.I1, T.I2, A, B)

    def test_non_invariant_sections_rejected(self):
        T = verify_triple(hyperkahler_r4(), 0)
        phi = make_torus_duality(R4, 0)
        x1 = ScalarField.variable(R4, 0)
        with pytest.raises(NonInvariantSectionError):
            lemma_5_1_instance(phi, T.I1, T.I2,
                               Section.frame(R4, 0).scale(x1),
                               Section.frame(R4, 1))


class TestProps:
    def test_full_transport_suite(self):
        T = verify_triple(hyperkahler_r4(), 1)
        phi = make_torus_duality(R4, 0)
        rep = props_5_2_to_5_4(phi, T, 1)
        assert rep.ok
        names = [n for n, _ in rep.checks]
        assert "prop_5_2: dual relations" in names
        assert names[-6:] == [f"prop_5_4: I{l}{s} transported"
                              for l in (1, 2, 3) for s in "+-"]

    def test_identity_duality_trivial(self):
        # conjugation by an identity-like swap of an untouched coordinate
        T = verify_triple(hyperkahler_r4(), 0)
        phi = make_torus_duality(R4, 3)
        Tt = conjugate_triple(phi, T)
        # x4-swap moves the triple but conjugating twice returns it
        back = conjugate_triple(phi, Tt)
        for a, b in zip(back.generators, T.generators):
            assert a.entries_equal(b)

    def test_rotation_commutes_pointwise(self):
        from gencliff.twistor import TwistorPoint, rotate_family
        T = verify_triple(hyperkahler_r4(), 0)
        phi = make_torus_duality(R4, 0)
        Tt = verify_triple(conjugate_triple(phi, T), 0)
        p = TwistorPoint(GaussianRational(1), GaussianRational(0, 1))
        R = rotate_family(T, p)
        Rt = rotate_family(Tt, p)
        for i in range(3):
            assert Rt.generators[i].entries_equal(
                conjugate(phi, R.generators[i]))
        # the six sector-generator records decide every point, this one too
        rep = props_5_2_to_5_4(phi, T)
        assert [(n, ok) for n, ok in rep.checks
                if n.startswith("prop_5_4")] == \
            [(f"prop_5_4: I{l}{s} transported", True)
             for l in (1, 2, 3) for s in "+-"]
