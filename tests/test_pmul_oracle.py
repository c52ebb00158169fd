"""Property test of the kernel's polynomial product against an independent
oracle over fractions.Fraction: exact Gaussian-rational coefficients, mixed
denominators, and term products that cancel within one output monomial.

The oracle works on exponent tuples; operands and results are packed into
the kernel's monomial layout at the boundary.  Besides small exponents in 3
variables, 8-variable operands carry exponents next to the field limit
EXP_LIMIT, where the oracle predicts the kernel's limit error."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gencliff._core import pykernel  # noqa: E402
from tests.layout import packed  # noqa: E402

L = pykernel.EXP_LIMIT


def canonical(re, im):
    """(a, b, d) with (a + b i)/d = re + im i, d > 0 the least common
    denominator; computed without the kernel's c_make."""
    d = re.denominator * im.denominator // gcd(re.denominator,
                                               im.denominator)
    return (int(re * d), int(im * d), d)


def oracle_mul(p, q):
    """The product on exponent tuples, or None when some term product has
    an exponent past the limit (cancelling or not)."""
    acc = {}
    for m1, (a1, b1, d1) in p.items():
        for m2, (a2, b2, d2) in q.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            if max(m) > L:
                return None
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


def polys(nvars, exponents):
    monomials = st.tuples(*[exponents] * nvars)
    return st.dictionaries(monomials, coefficients, max_size=6)


small = polys(3, st.integers(0, 2))
# exponents whose sums land below, on and past the limit
near_limit = polys(8, st.sampled_from((0, 0, 0, 1, 2, L // 2, L // 2 + 1,
                                       L - 1, L)))


def unpacked(p, n=3):
    return {pykernel.exponents(m, n): c for m, c in p.items()}


def assert_canonical(p):
    for m, (a, b, d) in p.items():
        assert m >= 0 and not m & pykernel.GUARD
        assert d > 0
        assert a or b, "zero coefficient stored"
        assert gcd(gcd(a, b), d) == 1


def check_product(kern, p, q):
    want = oracle_mul(p, q)
    if want is None:
        with pytest.raises(kern.ExponentLimitError):
            kern.p_mul(packed(p), packed(q))
        return
    out = kern.p_mul(packed(p), packed(q))
    assert out == packed(want)
    assert_canonical(out)


@pytest.mark.parametrize("kern", [pykernel], ids=["pykernel"])
class TestPolyMul:
    @settings(max_examples=300, deadline=None)
    @given(small, small)
    def test_matches_fraction_oracle(self, kern, p, q):
        check_product(kern, p, q)

    @settings(max_examples=300, deadline=None)
    @given(near_limit, near_limit)
    def test_matches_fraction_oracle_near_the_field_limit(self, kern, p, q):
        check_product(kern, p, q)

    @settings(max_examples=200, deadline=None)
    @given(small, small)
    def test_cross_terms_cancel(self, kern, a, b):
        # (a + b)(a - b) = a^2 - b^2: every cross term a*b cancels inside
        # one product, often leaving monomials whose sum is zero
        s = kern.p_add(packed(a), packed(b))
        t = kern.p_sub(packed(a), packed(b))
        out = kern.p_mul(s, t)
        assert out == packed(oracle_mul(unpacked(s), unpacked(t)))
        assert out == kern.p_sub(packed(oracle_mul(a, a)),
                                 packed(oracle_mul(b, b)))
        assert_canonical(out)
