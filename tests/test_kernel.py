"""The arithmetic kernel: coefficients, products, Jacobians and accumulators,
and the kernel bracket against the composed exterior-calculus route."""

import copy
import random
from math import lcm

import pytest

import gencliff
from gencliff._core import BACKEND, kernel, pykernel
from gencliff.cartan import KForm
from gencliff.gcs import _PowerDen, _kernel_generators
from gencliff.scalar import Poly, ScalarField, parse_expr, standard_chart
from gencliff.courant import (FluxForm, Section, algebroid_differential,
                              dorfman, dorfman_twisted, pairing,
                              section_from_kernel)
from tests.layout import packed, section_kernel_components
from tests.test_scalar import rnd_field


def rnd_kpoly(rng, nvars=3, terms=4):
    out = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, 3) for _ in range(nvars))
        c = pykernel.c_make(rng.randint(-9, 9) or 1, rng.randint(-9, 9),
                            rng.randint(1, 9))
        if c != pykernel.C_ZERO:
            out[m] = c
    return packed(out)


def rnd_ksection(rng, n=3):
    return [rnd_kpoly(rng, n, rng.randint(0, 3)) for _ in range(2 * n)]


# a base polynomial m on R^3 for the brackets over a power of it
QR_BASE = packed({(0, 0, 0): (1, 0, 1), (2, 0, 0): (1, 0, 1),
                  (0, 1, 1): (3, 0, 1)})


class TestCoefficients:
    def test_normalization(self):
        assert pykernel.c_make(2, 4, -6) == (-1, -2, 3)
        assert pykernel.c_make(0, 0, 5) == (0, 0, 1)

    def test_field_ops(self):
        rng = random.Random(0)
        for _ in range(200):
            x = pykernel.c_make(rng.randint(-9, 9) or 1, rng.randint(-9, 9),
                                rng.randint(1, 9))
            y = pykernel.c_make(rng.randint(-9, 9) or 3, rng.randint(-9, 9),
                                rng.randint(1, 9))
            assert pykernel.c_mul(x, pykernel.c_inv(x)) == pykernel.C_ONE
            assert pykernel.c_add(x, pykernel.c_neg(x)) == pykernel.C_ZERO
            assert pykernel.c_mul(x, y) == pykernel.c_mul(y, x)


class TestMonomialLayout:
    """One int per monomial: W-bit fields, variable i at bits [W*i, W*i+W),
    the top bit of each field a guard that stops an exponent past
    EXP_LIMIT from carrying into the next variable."""

    L = pykernel.EXP_LIMIT

    def test_pack_unpack_degree_order(self):
        rng = random.Random(90)
        tuples = [tuple(rng.choice((0, 0, 1, 2, 3, self.L))
                        for _ in range(8)) for _ in range(200)]
        for t in tuples:
            m = pykernel.mono(t)
            assert pykernel.exponents(m, 8) == t
            assert [pykernel.exponent(m, i) for i in range(8)] == list(t)
            short = pykernel.exponents(m)
            assert short + (0,) * (8 - len(short)) == t
            assert not short or short[-1]
            assert m == sum(e * pykernel.var(i) for i, e in enumerate(t))
            assert pykernel.degree(m) == sum(t)
            assert not m & pykernel.GUARD
        assert pykernel.mono((0,) * 8) == 0
        assert sorted(tuples, key=lambda t: (sum(t), t)) == [
            pykernel.exponents(m, 8) for m in sorted(
                map(pykernel.mono, tuples), key=pykernel.grlex_key)]

    def test_mono_rejects_what_no_field_holds(self):
        with pytest.raises(pykernel.ExponentLimitError):
            pykernel.mono((0, self.L + 1))
        with pytest.raises(ValueError):
            pykernel.mono((1, -1))

    @pytest.mark.parametrize("i", [0, 3, 7])
    def test_product_raises_at_the_field_boundary(self, i):
        # x_i^L * x_i would carry into x_(i+1) (or past the last field);
        # the guard raises instead, and the limit error is no ValueError,
        # so no suite can report it as a failed identity
        def x(e):
            return packed({tuple(e if k == i else 0 for k in range(8)):
                           pykernel.C_ONE})
        assert pykernel.p_mul(x(self.L - 1), x(1)) == x(self.L)
        for a, b in ((self.L, 1), (self.L // 2 + 1, self.L // 2 + 1)):
            with pytest.raises(pykernel.ExponentLimitError,
                               match=f"limit {self.L}"):
                pykernel.p_mul(x(a), x(b))
        # a cancelling product past the limit is still refused
        with pytest.raises(pykernel.ExponentLimitError):
            pykernel.p_dot([(x(self.L), x(1)),
                            (pykernel.p_neg(x(self.L)), x(1))])
        assert not issubclass(pykernel.ExponentLimitError, ValueError)
        assert issubclass(pykernel.ExponentLimitError, OverflowError)

    def test_full_fields_side_by_side(self):
        # every field at the limit at once: no carry between neighbours,
        # and the derivative lowers only its own field
        full = pykernel.mono((self.L,) * 8)
        p = pykernel.p_mul({pykernel.mono((self.L,) * 4 + (0,) * 4):
                            (2, 0, 1)},
                           {pykernel.mono((0,) * 4 + (self.L,) * 4):
                            (3, 0, 1)})
        assert p == {full: (6, 0, 1)}
        d = pykernel.p_diff(p, 5)
        assert d == {pykernel.mono((self.L,) * 5 + (self.L - 1,)
                                   + (self.L,) * 2): (6 * self.L, 0, 1)}

    def test_divexact_refuses_a_borrow(self):
        # mq does not divide mr when a field of mr is smaller, whichever
        # field it is (the top one included, where the difference goes
        # negative)
        from gencliff.polygcd import p_divexact
        one = pykernel.C_ONE
        for num, den in (((0, 1), (1, 0)), ((2, 0), (1, 1)),
                         ((1, 0), (0, 1)), ((self.L, 0), (0, 1))):
            assert p_divexact(packed({num: one}), packed({den: one})) is None
        assert p_divexact(packed({(self.L, 2): one}),
                          packed({(1, 2): one})) == packed({(self.L - 1, 0):
                                                            one})

    def test_chart_within_the_guard(self):
        # the guard covers every variable of the largest chart
        n = pykernel.MAX_VARS
        with pytest.raises(ValueError, match=f"more than {n}"):
            standard_chart(n + 1)
        top = standard_chart(n)
        x = Poly.variable(top, n - 1)
        big = Poly.from_coeffs(top, {(0,) * (n - 1) + (self.L,): 1})
        with pytest.raises(pykernel.ExponentLimitError):
            big * x


class TestPolyMulDenominators:
    def test_mixed_denominators_merge_over_their_lcm(self, monkeypatch):
        # each operand's coefficient denominators are pairwise coprime
        # primes, so term products landing on one monomial share factors;
        # the denominator p_mul hands to c_make must divide their LCM, which
        # cross-multiplying the partial sums exceeds
        rng = random.Random(5)
        primes = (2, 3, 5, 7, 11, 13)
        monos = [(i, j) for i in range(3) for j in range(3)]

        def operand():
            return {m: (rng.choice((-1, 1)), rng.randint(-9, 9), d)
                    for m, d in zip(rng.sample(monos, len(primes)), primes)}
        p, q = operand(), operand()
        lcms, prods = {}, {}
        for m1, (_, _, d1) in p.items():
            for m2, (_, _, d2) in q.items():
                m = pykernel.mono((m1[0] + m2[0], m1[1] + m2[1]))
                lcms[m] = lcm(lcms.get(m, 1), d1 * d2)
                prods[m] = prods.get(m, 1) * d1 * d2
        assert any(lcms[m] < prods[m] for m in lcms)
        p, q = packed(p), packed(q)
        make = pykernel.c_make
        want = pykernel.p_mul(p, q)
        monkeypatch.setattr(pykernel, "c_make", lambda a, b, d: (a, b, d))
        handed = pykernel.p_mul(p, q)
        assert handed.keys() == want.keys()
        for m, (a, b, d) in handed.items():
            assert lcms[m] % d == 0, (m, d, lcms[m])
            assert make(a, b, d) == want[m]


def mul_oracle(p, q):
    """p * q term by term, every term product through c_mul and every sum
    through c_add: no accumulator."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            c = pykernel.c_add(out.get(m, pykernel.C_ZERO),
                               pykernel.c_mul(c1, c2))
            if c == pykernel.C_ZERO:
                out.pop(m, None)
            else:
                out[m] = c
    return out


def mixed_kpoly(rng, terms):
    """Coefficients of every kind the accumulators branch on: real and
    Gaussian, integral and over denominators 1..6."""
    out = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, 2) for _ in range(3))
        b = rng.choice((0, 0, rng.randint(-5, 5)))
        out[m] = pykernel.c_make(rng.randint(-9, 9) or 1, b,
                                 rng.choice((1, 1, rng.randint(1, 6))))
    return packed(out)


class TestAccumulators:
    def test_accumulators_equal_the_product_oracle(self):
        # _p_mul_acc and _p_mul_sub_acc, into an empty accumulator and one
        # holding an earlier unnormalized sum, against c_mul and c_add
        rng = random.Random(93)
        kinds = set()
        for _ in range(300):
            p = mixed_kpoly(rng, rng.randint(1, 4))
            q = mixed_kpoly(rng, rng.randint(1, 4))
            kinds |= {(c1[1] != 0, c2[1] != 0, c1[2] * c2[2] == 1)
                      for c1 in p.values() for c2 in q.values()}
            r, t = (mixed_kpoly(rng, 3) for _ in range(2))
            prior = {}
            pykernel._p_mul_acc(prior, r, t)
            for start, base in (({}, {}), (prior, mul_oracle(r, t))):
                acc = dict(start)
                pykernel._p_mul_acc(acc, p, q)
                assert pykernel._normalize_acc(acc) == pykernel.p_add(
                    base, mul_oracle(p, q))
                acc = dict(start)
                pykernel._p_mul_sub_acc(acc, p, q)
                assert pykernel._normalize_acc(acc) == pykernel.p_sub(
                    base, mul_oracle(p, q))
        # real times real, real times Gaussian, Gaussian times real and
        # Gaussian times Gaussian, each over denominator 1 and over others
        assert len(kinds) == 8

    def test_integral_coefficients_are_canonical(self):
        # c_make(a, b, 1) is (a, b, 1) with no gcd, as the generic path
        # gives for the same value over any denominator
        rng = random.Random(94)
        for _ in range(200):
            a, b, k = (rng.randint(-50, 50), rng.randint(-50, 50),
                       rng.randint(-6, 6) or 1)
            assert pykernel.c_make(a, b, 1) == (a, b, 1)
            assert pykernel.c_make(a * k, b * k, k) == (a, b, 1)
        assert pykernel.c_make(0, 0, 1) == pykernel.C_ZERO
        assert pykernel.c_make(6, 4, 1) == (6, 4, 1)


class TestDot:
    def test_matches_products_summed_with_p_add(self):
        # the fused accumulation against p_mul + p_add, over coefficients
        # with unrelated denominators, empty operands, and pairs whose sum
        # cancels to the zero polynomial
        rng = random.Random(87)
        for _ in range(60):
            pairs = [(rnd_kpoly(rng, 3, rng.randint(0, 4)),
                      rnd_kpoly(rng, 3, rng.randint(0, 4)))
                     for _ in range(rng.randint(0, 5))]
            want = {}
            for p, q in pairs:
                want = pykernel.p_add(want, pykernel.p_mul(p, q))
            assert pykernel.p_dot(pairs) == want
            if pairs:
                p, q = pairs[0]
                cancel = pairs + [(p, pykernel.p_neg(q))] + [
                    (pykernel.p_neg(a), b) for a, b in pairs[1:]]
                assert pykernel.p_dot(cancel) == {}
        # one output monomial reached over denominators 6 and 10 sums to
        # 1/6 + 1/10 = 4/15, normalized once
        x = packed({(1,): (1, 0, 1)})
        assert pykernel.p_dot([(x, packed({(0,): (1, 0, 6)})),
                               (x, packed({(0,): (1, 0, 10)}))]) == \
            packed({(1,): (4, 0, 15)})

    def test_mat_apply_poly_is_the_row_dot(self):
        rng = random.Random(88)
        for _ in range(20):
            M = [[(j, rnd_kpoly(rng)) for j in rng.sample(range(6), 3)]
                 for _ in range(6)]
            A = rnd_ksection(rng)
            want = []
            for row in M:
                acc = {}
                for j, pe in row:
                    acc = pykernel.p_add(acc, pykernel.p_mul(pe, A[j]))
                want.append(acc)
            assert pykernel.mat_apply_poly(M, A) == want


class TestInputsUnchanged:
    """The accumulating kernels sum into dicts they own: no input changes,
    and no output dict is an input dict, so clearing every output leaves
    the inputs as they were."""

    @pytest.mark.parametrize("K", [pykernel], ids=["pykernel"])
    def test_accumulators_leave_inputs_unchanged(self, K):
        rng = random.Random(85)
        H = {(0, 1, 2): rnd_kpoly(rng)}
        for _ in range(40):
            A, B, C = (rnd_ksection(rng) for _ in range(3))
            dA, dB, dC = (K.sec_jacobian(3, X) for X in (A, B, C))
            AB, AC, BC = ((S, K.sec_jacobian(3, S)) for S in (
                K.sec_dorfman(3, X, Y, H) for X, Y in ((A, B), (A, C),
                                                         (B, C))))
            Mc = [[(j, pykernel.c_make(rng.randint(-3, 3) or 1, 0, 1))
                   for j in rng.sample(range(6), 3)] for _ in range(6)]
            Mp = [[(j, rnd_kpoly(rng)) for j in rng.sample(range(6), 3)]
                  for _ in range(6)]
            p, q = rnd_kpoly(rng), rnd_kpoly(rng)
            inputs = (A, B, C, dA, dB, dC, AB, AC, BC, H, Mc, Mp, p, q)
            before = copy.deepcopy(inputs)
            outs = [K.sec_dorfman(3, A, B, H, dA, dB),
                    K.sec_dorfman(3, A, B, H),
                    K.mat_apply_const(Mc, A), K.mat_apply_poly(Mp, B),
                    K.flux_contract(3, A, B, H),
                    K.sec_jacobi_residual(3, (A, dA), (B, dB), (C, dC), H,
                                          AB, AC, BC),
                    [K.p_add(p, q), K.p_sub(p, q), K.p_add({}, q),
                     K.p_sub(p, {}), K.p_dot([(p, q), (q, p)])]]
            assert inputs == before
            for out in outs:
                for d in out:
                    d.clear()
            assert inputs == before


class TestJacobian:
    def test_zero_components_give_none(self):
        # None exactly when every partial is zero: for a zero component and
        # for a constant one
        rng = random.Random(83)
        for _ in range(50):
            A = rnd_ksection(rng)
            A[rng.randrange(6)] = packed({(0, 0, 0): (5, -2, 3)})
            jac = kernel.sec_jacobian(3, A)
            for comp, row in zip(A, jac):
                partials = [kernel.p_diff(comp, t) for t in range(3)]
                assert row == (partials if any(partials) else None)


def dorfman_oracle(n, A, B, H):
    """The Dorfman bracket of kernel sections term by term, every product
    through p_mul and every sum through p_add or p_sub, with no Jacobian
    and no accumulator: the oracle of sec_dorfman's one accumulator per
    component."""
    K = pykernel

    def d(p, t):
        return K.p_diff(p, t)
    out = [{} for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i] = K.p_add(out[i], K.p_mul(A[j], d(B[i], j)))
            out[i] = K.p_sub(out[i], K.p_mul(B[j], d(A[i], j)))
            out[n + i] = K.p_add(out[n + i], K.p_mul(A[j], d(B[n + i], j)))
            out[n + i] = K.p_add(out[n + i], K.p_mul(B[n + j], d(A[j], i)))
            out[n + i] = K.p_sub(out[n + i], K.p_mul(
                B[j], K.p_sub(d(A[n + i], j), d(A[n + j], i))))
    for (i, j, k), h in (H or {}).items():
        X, Y = A[:n], B[:n]
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            # iota_Y iota_X (h dx^a^dx^b^dx^c) has h (X^a Y^b - X^b Y^a)
            # at dx^c
            t = K.p_sub(K.p_mul(X[a], Y[b]), K.p_mul(X[b], Y[a]))
            out[n + c] = K.p_sub(out[n + c], K.p_mul(h, t))
    return out


def constant_ksection(rng, n=3):
    """A section with constant Gaussian-rational components, some zero."""
    return [packed({(0,) * n: pykernel.c_make(rng.randint(-9, 9),
                                              rng.randint(-9, 9),
                                              rng.randint(1, 9))})
            if rng.random() < 0.7 else {} for _ in range(2 * n)]


class TestStructurallyZeroBracket:
    """sec_dorfman returns the zero section at once when both Jacobians are
    all None and there is no flux, and otherwise sums each component in one
    accumulator."""

    def test_constant_operands_without_flux_take_no_product(self,
                                                            monkeypatch):
        rng = random.Random(90)
        R3 = standard_chart(3)

        def refuse(*args):
            raise AssertionError("a product was taken")
        for _ in range(20):
            A, B = constant_ksection(rng), constant_ksection(rng)
            want = dorfman(section_from_kernel(R3, A),
                           section_from_kernel(R3, B))
            assert want.is_zero
            with monkeypatch.context() as mp:
                for name in ("_p_mul_acc", "_p_mul_sub_acc", "p_mul"):
                    mp.setattr(pykernel, name, refuse)
                for H in (None, {}):
                    assert pykernel.sec_dorfman(3, A, B, H) == [{}] * 6
                    assert pykernel.sec_jacobian(3, A) == [None] * 6

    def test_constant_operands_with_a_constant_flux_are_not_skipped(self):
        # [A, B]_H = -iota_Y iota_X H for constant A, B: nonzero
        rng = random.Random(91)
        R3 = standard_chart(3)
        Hf = FluxForm(KForm(R3, 3, {(0, 1, 2): ScalarField.constant(R3, 7)}))
        kf = {(0, 1, 2): packed({(0, 0, 0): (7, 0, 1)})}
        nonzero = 0
        for _ in range(20):
            A, B = constant_ksection(rng), constant_ksection(rng)
            got = pykernel.sec_dorfman(3, A, B, kf)
            want = pykernel.flux_contract(3, A, B, kf)
            assert got == [{}] * 3 + [pykernel.p_neg(w) for w in want]
            assert section_from_kernel(R3, got) == dorfman_twisted(
                section_from_kernel(R3, A), section_from_kernel(R3, B), Hf)
            nonzero += any(got)
        assert nonzero

    def test_constant_numerator_over_m_is_not_skipped(self):
        # d/dx_t (c / m) = -c d_t m / m^2: a constant numerator over m^1 has
        # no plain Jacobian but keeps its power of m, so its bracket with a
        # frame section is taken (_PowerDen.dorfman), in either order, and
        # is the ScalarField route's
        R3 = standard_chart(3)
        base = _PowerDen(R3, QR_BASE)
        c = packed({(0, 0, 0): (2, 1, 3)})
        P = base.operand([c, {}, {}, {}, {}, {}], 1)
        assert P[1] == [None] * 6 and P[2] == 1
        nonzero = 0
        for b in range(6):
            Q = [{}] * 6
            Q[b] = packed({(0, 0, 0): (1, 0, 1)})
            Q = base.operand(Q, 0)
            for X, Y in ((P, Q), (Q, P)):
                got = base.dorfman(X, Y, None, 2)
                assert base.section(got, 2) == dorfman(
                    base.section(X[0], X[2]), base.section(Y[0], Y[2]))
                nonzero += any(got)
        # e.g. [d_b, (c/m) d1] = d_b(c/m) d1, nonzero for b = 1, 2, 3
        assert nonzero

    def test_accumulated_bracket_is_the_product_oracle(self):
        # random sections with Gaussian coefficients over mixed
        # denominators, constant and zero components among them, with and
        # without a polynomial flux
        rng = random.Random(92)
        for _ in range(60):
            A, B = rnd_ksection(rng), rnd_ksection(rng)
            if rng.random() < 0.3:
                A = constant_ksection(rng)
            H = rng.choice([None, {(0, 1, 2): rnd_kpoly(rng)}])
            want = dorfman_oracle(3, A, B, H)
            assert pykernel.sec_dorfman(3, A, B, H) == want
            assert pykernel.sec_dorfman(3, A, B, H, pykernel.sec_jacobian(
                3, A), pykernel.sec_jacobian(3, B)) == want
        # two term products of one output monomial over denominators 6 and
        # 10 sum to 1/6 + 1/10 = 4/15, normalized once: the e1-component
        # of [d1/6 + d2/10, (x1 + x2) e1] is L_X eta = X^1 + X^2
        A = [packed({(0, 0, 0): (1, 0, 6)}), packed({(0, 0, 0): (1, 0, 10)}),
             {}, {}, {}, {}]
        B = [{}, {}, {}, packed({(1, 0, 0): (1, 0, 1), (0, 1, 0): (1, 0, 1)}),
             {}, {}]
        got = pykernel.sec_dorfman(3, A, B, None)
        assert got == dorfman_oracle(3, A, B, None)
        assert got[3] == packed({(0, 0, 0): (4, 0, 15)})


class TestLeibnizBracket:
    """gcs._PowerDen.dorfman, the bracket over a power of a non-unit base
    by the Leibniz rules, against the Cartan-calculus route
    courant.dorfman_twisted, with a flux over that base: on R^3,
    H = 1/(1 + x1^2) dx1^dx2^dx3, so m = 1 + x1^2 and H's numerator over
    m^1 is 1."""

    def test_twisted_bracket_matches_the_reference(self):
        R3 = standard_chart(3)
        h = ScalarField(Poly.one(R3), Poly(R3, packed(
            {(0, 0, 0): (1, 0, 1), (2, 0, 0): (1, 0, 1)})))
        Hf = FluxForm(KForm(R3, 3, {(0, 1, 2): h}))
        base = _PowerDen.lcm(R3, [h])
        assert not base.unit
        kflux = {(0, 1, 2): base.numerator(h)}
        rng = random.Random(93)

        def coeff():
            return (rng.randint(-3, 3) or 1, rng.randint(-3, 3),
                    rng.choice((1, 1, 2)))

        def section():
            # three components of at most two terms of degree <= 1, with
            # Gaussian coefficients
            P = [{} for _ in range(6)]
            for a in rng.sample(range(6), 3):
                P[a] = packed({tuple(int(t == rng.randrange(4))
                                     for t in range(3)): coeff()
                               for _ in range(2)})
            return P
        for j in range(3):
            for k in range(3):
                # m^j times a constant section of Gaussian integers, kept
                # as an operand over m^0, and a section over m^j
                c = [{0: coeff()[:2] + (1,)} if rng.random() < 0.5 else {}
                     for _ in range(6)]
                for P, power in (
                        ([pykernel.p_mul(p, base.mpow(j)) for p in c], 0),
                        (section(), j)):
                    Q = section()
                    A, B = base.operand(P, j), base.operand(Q, k)
                    assert (A[2], B[2]) == (power, k)
                    SP, SQ = base.section(P, j), base.section(Q, k)
                    for X, Y, want in (
                            (A, B, dorfman_twisted(SP, SQ, Hf)),
                            (B, A, dorfman_twisted(SQ, SP, Hf))):
                        for top in (j + k + 1, j + k + 2):
                            got = base.dorfman(X, Y, kflux, top)
                            assert base.section(got, top) == want


class TestTheorem11FramePairs:
    def test_no_structure_is_applied_on_the_frame_pairs(self, monkeypatch):
        # on hyperkahler_r4 every generator pair theorem11 evaluates is a
        # pair of constant sections over the unit base, so every bracket is
        # zero: no pair brackets or applies a structure; the generators'
        # own images J e_a are built outside the pairs.  Skipped pairs are
        # still counted: 3 x 2 generator pairs and 21 x 28 family pairs
        from gencliff import cli, gcs
        inside, calls = [False], {"mat_apply_const": [], "sec_dorfman": []}
        evaluate = gcs._eval_kernel

        def counted_evaluate(*args):
            inside[0] = True
            try:
                return evaluate(*args)
            finally:
                inside[0] = False

        def counted(name):
            fn = getattr(pykernel, name)

            def wrapper(*args):
                calls[name].append(inside[0])
                return fn(*args)
            return wrapper
        monkeypatch.setattr(gcs, "_eval_kernel", counted_evaluate)
        for name in calls:
            monkeypatch.setattr(pykernel, name, counted(name))
        model = cli.load_model(None, "hyperkahler_r4")
        report, code = cli.run(model, cli.RunConfig(suites=["theorem11"]))
        assert code == 0
        assert [(s["status"], s["checks"]) for s in report["suites"]] == \
            [("pass", 3 * 2 + 21 * 28)]
        assert calls["mat_apply_const"]
        assert not any(calls["mat_apply_const"] + calls["sec_dorfman"])


class TestKernelVsCalculus:
    def test_bracket_agrees_with_composed_route(self):
        # the kernel bracket formula against lie/interior/exterior composition
        rng = random.Random(80)
        R3 = standard_chart(3)
        for _ in range(40):
            A = Section.from_components(
                R3, [rnd_field(rng, R3) for _ in range(6)])
            B = Section.from_components(
                R3, [rnd_field(rng, R3) for _ in range(6)])
            ka = section_kernel_components(A)
            kb = section_kernel_components(B)
            out = section_from_kernel(R3, kernel.sec_dorfman(3, ka, kb, None))
            assert out == dorfman(A, B)
            # precomputed Jacobians give the same bracket as plain partials
            assert kernel.sec_dorfman(
                3, ka, kb, None, kernel.sec_jacobian(3, ka),
                kernel.sec_jacobian(3, kb)) == section_kernel_components(out)


class TestSymmetricAxiom:
    def test_square_and_pairing_differential_match_calculus(self):
        # the two sides of the axioms suite's symmetric check: the
        # flux-twisted square [A,A]_H from sec_dorfman and D<A,A> on kernel
        # dicts, each against the ScalarField route, on R^3 at degree 1 with
        # a closed (every 3-form on R^3 is) polynomial flux; random sections
        # give a nonzero <A,A>, which single-component generators do not
        R3 = standard_chart(3)
        H = FluxForm(KForm(R3, 3, {(0, 1, 2): parse_expr(
            "2/3 - 5*x1 + 7/11*x2*x3 + x3^2", R3)}))
        kf = {idx: f.num.terms for idx, f in H.H.coeffs.items()}
        rng = random.Random(86)
        secs = _kernel_generators(R3, 1) + [rnd_ksection(rng)
                                            for _ in range(12)]
        assert any(kernel.sec_pairing_differential(3, A) != [{}] * 6
                   for A in secs)
        for A in secs:
            S = section_from_kernel(R3, A)
            DAA = kernel.sec_pairing_differential(3, A)
            assert section_from_kernel(R3, DAA) == \
                algebroid_differential(pairing(S, S))
            dA = kernel.sec_jacobian(3, A)
            AA = kernel.sec_dorfman(3, A, A, kf, dA, dA)
            assert section_from_kernel(R3, AA) == dorfman_twisted(S, S, H)
            assert AA == DAA


def test_backend_reported():
    assert kernel is pykernel
    assert BACKEND == gencliff.KERNEL_BACKEND == "python"
