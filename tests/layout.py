"""Test helper: polynomials written with exponent-tuple keys, packed into the
kernel's monomial layout (one int per monomial, see ``_core.pykernel``)."""

from gencliff._core import pykernel


def packed(terms):
    """{exponent tuple: coefficient} -> {packed monomial: coefficient}."""
    return {pykernel.mono(m): c for m, c in terms.items()}
