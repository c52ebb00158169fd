"""Test helper: polynomials written with exponent-tuple keys, packed into the
kernel's monomial layout (one int per monomial, see ``_core.pykernel``)."""

from gencliff._core import pykernel


def packed(terms):
    """{exponent tuple: coefficient} -> {packed monomial: coefficient}."""
    return {pykernel.mono(m): c for m, c in terms.items()}


def integral(*polys):
    """Whether every coefficient of the polynomials is a Gaussian integer
    (denominator 1), the invariant of every fixed-denominator base but the
    unit (``gcs._PowerDen``)."""
    return all(c[2] == 1 for p in polys for c in p.values())
