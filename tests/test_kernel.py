"""Kernel backends: pure-Python vs compiled equivalence, and the kernel
bracket against the composed exterior-calculus route."""

import random

import pytest

from gencliff._core import BACKEND, pykernel

try:
    from gencliff._core import _ckernel
except ImportError:
    _ckernel = None

from gencliff.scalar import standard_chart
from gencliff.courant import (Section, dorfman, section_from_kernel,
                              section_kernel_components)
from tests.test_scalar import rnd_field


def rnd_kpoly(rng, nvars=3, terms=4):
    out = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, 3) for _ in range(nvars))
        c = pykernel.c_make(rng.randint(-9, 9) or 1, rng.randint(-9, 9),
                            rng.randint(1, 9))
        if c != pykernel.C_ZERO:
            out[m] = c
    return out


def rnd_ksection(rng, n=3):
    return [rnd_kpoly(rng, n, rng.randint(0, 3)) for _ in range(2 * n)]


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


@pytest.mark.skipif(_ckernel is None, reason="compiled kernel not built")
class TestBackendEquivalence:
    def test_poly_ops_identical(self):
        rng = random.Random(77)
        for _ in range(250):
            p, q = rnd_kpoly(rng), rnd_kpoly(rng)
            assert _ckernel.p_add(p, q) == pykernel.p_add(p, q)
            assert _ckernel.p_sub(p, q) == pykernel.p_sub(p, q)
            assert _ckernel.p_mul(p, q) == pykernel.p_mul(p, q)
            assert _ckernel.p_neg(p) == pykernel.p_neg(p)
            assert _ckernel.p_diff(p, 1) == pykernel.p_diff(p, 1)
            c = pykernel.c_make(rng.randint(-5, 5) or 2, rng.randint(-5, 5),
                                rng.randint(1, 5))
            assert _ckernel.p_scale(p, c) == pykernel.p_scale(p, c)

    def test_dorfman_identical(self):
        rng = random.Random(78)
        H = {(0, 1, 2): {(0, 0, 0): (1, 0, 1)}}
        for _ in range(120):
            A, B = rnd_ksection(rng), rnd_ksection(rng)
            for flux in (None, H):
                assert _ckernel.sec_dorfman(3, A, B, flux) == \
                    pykernel.sec_dorfman(3, A, B, flux)

    def test_dorfman_quotient_rule_identical(self):
        # the fixed-denominator twistor sweep passes d/dx_t (comp / m^k)
        # numerators over m^(k+1) as the derivatives of A and of B
        rng = random.Random(81)
        m = {(0, 0, 0): (1, 0, 1), (2, 0, 0): (1, 0, 1), (0, 1, 1): (3, 0, 1)}
        dm = [pykernel.p_diff(m, t) for t in range(3)]

        def quotient_rule(k):
            def d(comp, t):
                return pykernel.p_sub(
                    pykernel.p_mul(m, pykernel.p_diff(comp, t)),
                    pykernel.p_scale(pykernel.p_mul(comp, dm[t]), (k, 0, 1)))
            return d

        for _ in range(60):
            A, B = rnd_ksection(rng), rnd_ksection(rng)
            da, db = quotient_rule(1), quotient_rule(2)
            assert _ckernel.sec_dorfman(3, A, B, None, da, db) == \
                pykernel.sec_dorfman(3, A, B, None, da, db)

    def test_matrix_apply_identical(self):
        rng = random.Random(79)
        for _ in range(60):
            A = rnd_ksection(rng)
            Mc = [[(rng.randrange(6), pykernel.c_make(rng.randint(-3, 3) or 1,
                                                      0, 1))]
                  for _ in range(6)]
            assert _ckernel.mat_apply_const(Mc, A) == \
                pykernel.mat_apply_const(Mc, A)
            Mp = [[(rng.randrange(6), rnd_kpoly(rng))] for _ in range(6)]
            assert _ckernel.mat_apply_poly(Mp, A) == \
                pykernel.mat_apply_poly(Mp, A)


class TestKernelVsCalculus:
    def test_bracket_agrees_with_composed_route(self):
        # the kernel bracket formula against lie/interior/exterior composition
        rng = random.Random(80)
        R3 = standard_chart(3)
        from gencliff._core import kernel
        for _ in range(40):
            A = Section.from_components(
                R3, [rnd_field(rng, R3) for _ in range(6)])
            B = Section.from_components(
                R3, [rnd_field(rng, R3) for _ in range(6)])
            ka = section_kernel_components(A)
            kb = section_kernel_components(B)
            out = section_from_kernel(R3, kernel.sec_dorfman(3, ka, kb, None))
            assert out == dorfman(A, B)


def test_backend_reported():
    assert BACKEND in ("c", "python")
