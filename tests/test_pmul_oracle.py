"""Property test of the kernel's polynomial product against an independent
oracle over fractions.Fraction: exact Gaussian-rational coefficients, mixed
denominators, and term products that cancel within one output monomial."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gencliff._core import pykernel  # noqa: E402

NVARS = 3


def canonical(re, im):
    """(a, b, d) with (a + b i)/d = re + im i, d > 0 the least common
    denominator; computed without the kernel's c_make."""
    d = re.denominator * im.denominator // gcd(re.denominator,
                                               im.denominator)
    return (int(re * d), int(im * d), d)


def oracle_mul(p, q):
    acc = {}
    for m1, (a1, b1, d1) in p.items():
        for m2, (a2, b2, d2) in q.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            x, y = Fraction(a1, d1), Fraction(b1, d1)
            u, v = Fraction(a2, d2), Fraction(b2, d2)
            re, im = acc.get(m, (Fraction(0), Fraction(0)))
            acc[m] = (re + x * u - y * v, im + x * v + y * u)
    return {m: canonical(re, im) for m, (re, im) in acc.items()
            if re or im}


coefficients = st.builds(
    lambda a, b, d: canonical(Fraction(a, d), Fraction(b, d)),
    st.integers(-12, 12), st.integers(-12, 12),
    st.sampled_from((1, 1, 2, 3, 4, 6, 9, 35))).filter(lambda c: c[0] or c[1])
monomials = st.tuples(*[st.integers(0, 2)] * NVARS)
polys = st.dictionaries(monomials, coefficients, max_size=6)


def assert_canonical(p):
    for m, (a, b, d) in p.items():
        assert len(m) == NVARS
        assert d > 0
        assert a or b, "zero coefficient stored"
        assert gcd(gcd(a, b), d) == 1


@pytest.mark.parametrize("kern", [pykernel], ids=["pykernel"])
class TestPolyMul:
    @settings(max_examples=300, deadline=None)
    @given(polys, polys)
    def test_matches_fraction_oracle(self, kern, p, q):
        out = kern.p_mul(p, q)
        assert out == oracle_mul(p, q)
        assert_canonical(out)

    @settings(max_examples=200, deadline=None)
    @given(polys, polys)
    def test_cross_terms_cancel(self, kern, a, b):
        # (a + b)(a - b) = a^2 - b^2: every cross term a*b cancels inside
        # one product, often leaving monomials whose sum is zero
        s, t = kern.p_add(a, b), kern.p_sub(a, b)
        out = kern.p_mul(s, t)
        assert out == oracle_mul(s, t)
        assert out == kern.p_sub(oracle_mul(a, a), oracle_mul(b, b))
        assert_canonical(out)
