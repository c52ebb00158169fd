"""Test helper: polynomials written with exponent-tuple keys, packed into the
kernel's monomial layout (one int per monomial, see ``_core.pykernel``), and
a Section's components in that layout."""

from gencliff._core import pykernel


def packed(terms):
    """{exponent tuple: coefficient} -> {packed monomial: coefficient}."""
    return {pykernel.mono(m): c for m, c in terms.items()}


def integral(*polys):
    """Whether every coefficient of the polynomials is a Gaussian integer
    (denominator 1), the invariant of every fixed-denominator base but the
    unit (``gcs._PowerDen``)."""
    return all(c[2] == 1 for p in polys for c in p.values())


def section_kernel_components(A):
    """Kernel layout (list of 2n term dicts) if all components are
    polynomial, else None."""
    out = []
    for f in A.to_components():
        if not f.is_polynomial:
            return None
        out.append(f.num.terms)
    return out
