"""Courant algebroid layer: pairing, Dorfman brackets, anchor, differential."""

import random
from fractions import Fraction

import pytest

from gencliff.scalar import ScalarField, standard_chart
from gencliff.cartan import KForm, VectorField
from gencliff.courant import (FluxForm, NonClosedFluxError, Section,
                              algebroid_differential, anchor, dorfman,
                              dorfman_twisted, frame_sections,
                              monomials_up_to, pairing, pairing_matrix)
from tests.test_scalar import rnd_field

R3 = standard_chart(3)
R4 = standard_chart(4)


def rnd_section(rng, chart):
    return Section.from_components(
        chart, [rnd_field(rng, chart) for _ in range(2 * chart.dim)])


def sec(chart, a):
    return Section.frame(chart, a)


class TestPairing:
    def test_examples(self):
        d1, d2 = sec(R3, 0), sec(R3, 1)
        e1 = sec(R3, 3)
        assert pairing(d1, d2).is_zero
        assert pairing(d1 + e1, d1 + e1) == ScalarField.one(R3)
        assert pairing(d1, e1) == ScalarField.constant(R3, Fraction(1, 2))

    def test_symmetric_bilinear(self):
        rng = random.Random(13)
        for _ in range(25):
            A, B = rnd_section(rng, R3), rnd_section(rng, R3)
            assert pairing(A, B) == pairing(B, A)
            f = rnd_field(rng, R3)
            assert pairing(A.scale(f), B) == f * pairing(A, B)

    def test_matrix_representation_agrees(self):
        P = pairing_matrix(R3)
        rng = random.Random(14)
        for _ in range(15):
            A, B = rnd_section(rng, R3), rnd_section(rng, R3)
            ca, cb = A.to_components(), B.to_components()
            acc = ScalarField.zero(R3)
            for i in range(6):
                for j in range(6):
                    if P[i][j]:
                        acc = acc + ca[i] * cb[j] * P[i][j]
            assert acc == pairing(A, B)

    def test_matrix_shape_and_signature(self):
        for n in (1, 2, 3, 4):
            chart = standard_chart(n)
            P = pairing_matrix(chart)
            # P symmetric, 2P an involution with trace zero
            size = 2 * n
            assert all(P[i][j] == P[j][i] for i in range(size)
                       for j in range(size))
            sq = [[sum(2 * P[i][k] * 2 * P[k][j] for k in range(size))
                   for j in range(size)] for i in range(size)]
            assert all(sq[i][j] == (1 if i == j else 0) for i in range(size)
                       for j in range(size))
            assert sum(2 * P[i][i] for i in range(size)) == 0
            # explicit eigenbasis: e_i +- e_{n+i} with eigenvalues +-1
            for i in range(n):
                for sign in (1, -1):
                    v = [Fraction(0)] * size
                    v[i] = Fraction(1)
                    v[n + i] = Fraction(sign)
                    out = [sum(2 * P[r][c] * v[c] for c in range(size))
                           for r in range(size)]
                    assert out == [sign * x for x in v]


class TestDorfman:
    def test_constant_sections_flat(self):
        A = sec(R3, 0) + sec(R3, 4)      # d1 + e2
        B = sec(R3, 1) + sec(R3, 3)      # d2 + e1
        assert dorfman(A, B).is_zero

    def test_lie_derivative_part(self):
        x1 = ScalarField.variable(R3, 0)
        assert dorfman(sec(R3, 0), sec(R3, 4).scale(x1)) == sec(R3, 4)

    def test_lie_bracket_part(self):
        x1 = ScalarField.variable(R3, 0)
        assert dorfman(sec(R3, 1).scale(x1), sec(R3, 0)) == -sec(R3, 1)

    def test_not_skew(self):
        x1 = ScalarField.variable(R3, 0)
        A = sec(R3, 0)
        B = sec(R3, 3).scale(x1)
        assert dorfman(A, B) + dorfman(B, A) != Section.zero(R3)


class TestTwisted:
    H = FluxForm(KForm.basis(R3, (0, 1, 2)))

    def test_contraction(self):
        assert dorfman_twisted(sec(R3, 0), sec(R3, 1), self.H) == -sec(R3, 5)
        assert dorfman_twisted(sec(R3, 1), sec(R3, 0), self.H) == sec(R3, 5)

    def test_zero_flux_reduces(self):
        rng = random.Random(8)
        Z = FluxForm.zero(R3)
        for _ in range(10):
            A, B = rnd_section(rng, R3), rnd_section(rng, R3)
            assert dorfman_twisted(A, B, Z) == dorfman(A, B)
            assert dorfman_twisted(A, B, None) == dorfman(A, B)

    def test_strict_mode_rejects_nonclosed(self):
        x1 = ScalarField.variable(R4, 0)
        H = FluxForm(KForm(R4, 3, {(1, 2, 3): x1}))
        assert not H.closed
        with pytest.raises(NonClosedFluxError):
            dorfman_twisted(sec(R4, 0), sec(R4, 1), H)
        # warn mode computes anyway
        out = dorfman_twisted(sec(R4, 0), sec(R4, 1), H, strict=False)
        assert out is not None


class TestAnchorAndDifferential:
    def test_anchor_projects(self):
        A = sec(R3, 0) + sec(R3, 4)
        assert anchor(A) == VectorField.coordinate(R3, 0)
        assert anchor(sec(R3, 3)).is_zero
        x1, x2 = (ScalarField.variable(R3, i) for i in (0, 1))
        B = sec(R3, 1).scale(x1) + sec(R3, 3).scale(x2)
        assert anchor(B) == VectorField.coordinate(R3, 1).scale(x1)

    def test_differential_examples(self):
        x1 = ScalarField.variable(R3, 0)
        assert algebroid_differential(x1) == sec(R3, 3)
        assert algebroid_differential(ScalarField.constant(R3, 7)).is_zero

    def test_differential_pairing_identity(self):
        rng = random.Random(23)
        half = ScalarField.constant(R3, Fraction(1, 2))
        for _ in range(25):
            f = rnd_field(rng, R3)
            A = rnd_section(rng, R3)
            lhs = pairing(algebroid_differential(f), A)
            rhs = half * anchor(A).apply(f)
            assert lhs == rhs

    def test_symmetric_part_example(self):
        x1 = ScalarField.variable(R3, 0)
        A = sec(R3, 0) + sec(R3, 3).scale(x1)
        assert dorfman(A, A) == algebroid_differential(pairing(A, A))
        assert dorfman(A, A) == sec(R3, 3)


class TestAxiomsSmall:
    def test_jacobi_and_symmetric_part_degree_one(self):
        # the degree-2 exhaustive sweep is acceptance criterion 1
        H = FluxForm(KForm.basis(R3, (0, 1, 2)))
        gens = []
        for e in frame_sections(R3):
            for m in monomials_up_to(R3, 1):
                gens.append(e.scale(ScalarField.from_poly(m)))
        rng = random.Random(3)
        picks = [rng.randrange(len(gens)) for _ in range(120)]
        for flux in (None, H):
            def br(X, Y):
                if flux is None:
                    return dorfman(X, Y)
                return dorfman_twisted(X, Y, flux)
            for t in range(0, len(picks) - 2, 3):
                a, b, c = (gens[picks[t + k]] for k in range(3))
                lhs = br(a, br(b, c))
                rhs = br(br(a, b), c) + br(b, br(a, c))
                assert lhs == rhs
        for A in gens:
            assert dorfman(A, A) == algebroid_differential(pairing(A, A))


class TestComponentsRoundtrip:
    def test_mutually_inverse(self):
        rng = random.Random(99)
        for _ in range(20):
            A = rnd_section(rng, R4)
            assert Section.from_components(R4, A.to_components()) == A
            comps = [rnd_field(rng, R4) for _ in range(8)]
            assert Section.from_components(R4, comps).to_components() == comps
