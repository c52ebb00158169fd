"""The standard (twisted) Courant algebroid on TM + T*M over a chart:
sections, the neutral pairing, Dorfman and twisted Dorfman brackets, anchor,
and the algebroid differential.

A Section is kept both structurally (vector field + 1-form) and flattened
(length-2n component list); the conversions are explicit and mutually
inverse.  ``dorfman`` composes the cartan operations (the readable reference
route).  The verification sweeps use the arithmetic kernel's
``sec_dorfman`` on raw polynomial data instead; the test suite checks the
two equal.
"""

from __future__ import annotations

from fractions import Fraction

from ._core import kernel as K
from .scalar import Chart, ChartMismatchError, Poly, ScalarField
from .cartan import (KForm, VectorField, exterior_d, interior, is_closed,
                     lie_bracket, lie_derivative)


class Section:
    """Generalized vector field X + xi."""

    __slots__ = ("chart", "vec", "cov")

    def __init__(self, vec: VectorField, cov: KForm):
        if cov.degree != 1:
            raise ValueError("covector part must be a 1-form")
        if vec.chart != cov.chart:
            raise ChartMismatchError("vector and covector on different charts")
        self.chart = vec.chart
        self.vec = vec
        self.cov = cov

    @classmethod
    def zero(cls, chart):
        return cls(VectorField.zero(chart), KForm.zero(chart, 1))

    @classmethod
    def from_vector(cls, X):
        return cls(X, KForm.zero(X.chart, 1))

    @classmethod
    def from_form(cls, xi):
        return cls(VectorField.zero(xi.chart), xi)

    @classmethod
    def frame(cls, chart, a):
        """a-th frame section: d_{a+1} for a < n, dx^{a-n+1} for a >= n."""
        n = chart.dim
        if not 0 <= a < 2 * n:
            raise IndexError("frame index out of range")
        if a < n:
            return cls.from_vector(VectorField.coordinate(chart, a))
        return cls.from_form(KForm.basis(chart, (a - n,)))

    @classmethod
    def from_components(cls, chart, comps):
        """Inverse of to_components: first n entries vector, last n covector."""
        comps = list(comps)
        if len(comps) != 2 * chart.dim:
            raise ValueError("need 2n components")
        n = chart.dim
        vec = VectorField(chart, comps[:n])
        cov = KForm(chart, 1, {(i,): comps[n + i] for i in range(n)
                               if not comps[n + i].is_zero})
        return cls(vec, cov)

    def to_components(self):
        n = self.chart.dim
        zero = ScalarField.zero(self.chart)
        return list(self.vec.components) + \
            [self.cov.coeffs.get((i,), zero) for i in range(n)]

    @property
    def is_zero(self):
        return self.vec.is_zero and self.cov.is_zero

    def __add__(self, other):
        return Section(self.vec + other.vec, self.cov + other.cov)

    def __sub__(self, other):
        return Section(self.vec - other.vec, self.cov - other.cov)

    def __neg__(self):
        return Section(-self.vec, -self.cov)

    def scale(self, f):
        return Section(self.vec.scale(f), self.cov.scale(f))

    def __eq__(self, other):
        return (isinstance(other, Section) and self.vec == other.vec
                and self.cov == other.cov)

    def __hash__(self):
        return hash((self.vec, self.cov))

    def __str__(self):
        parts = []
        v, c = str(self.vec), str(self.cov)
        if v != "0":
            parts.append(v)
        if c != "0":
            parts.append(c)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Section({self})"


class NonClosedFluxError(ValueError):
    pass


class FluxForm:
    """A 3-form twist; records whether it is exactly closed."""

    __slots__ = ("H", "closed")

    def __init__(self, H: KForm):
        if H.degree != 3:
            raise ValueError("flux must be a 3-form")
        self.H = H
        self.closed = is_closed(H)

    @classmethod
    def zero(cls, chart):
        return cls(KForm.zero(chart, 3))

    @property
    def chart(self):
        return self.H.chart

    @property
    def is_zero(self):
        return self.H.is_zero

    def __eq__(self, other):
        if other is None:
            return self.is_zero
        return isinstance(other, FluxForm) and self.H == other.H

    def __hash__(self):
        return hash(self.H)

    def __repr__(self):
        return f"FluxForm({self.H})"


def pairing(A: Section, B: Section) -> ScalarField:
    """<X+xi, Y+eta> = (xi(Y) + eta(X))/2 - symmetric, signature (n, n)."""
    if A.chart != B.chart:
        raise ChartMismatchError("sections on different charts")
    chart = A.chart
    acc = ScalarField.zero(chart)
    for (i,), f in A.cov.coeffs.items():
        acc = acc + f * B.vec.components[i]
    for (i,), f in B.cov.coeffs.items():
        acc = acc + f * A.vec.components[i]
    return acc * Fraction(1, 2)


def pairing_matrix(chart: Chart):
    """The constant 2n x 2n matrix P = [[0, Id],[Id, 0]]/2 of the pairing."""
    n = chart.dim
    half = Fraction(1, 2)
    rows = []
    for i in range(2 * n):
        row = [Fraction(0)] * (2 * n)
        row[(i + n) % (2 * n)] = half
        rows.append(tuple(row))
    return tuple(rows)


def anchor(A: Section) -> VectorField:
    """rho(X + xi) = X."""
    return A.vec


def algebroid_differential(f: ScalarField) -> Section:
    """D f = 0 + df as a section; <Df, A> = rho(A)f / 2 for every A."""
    return Section.from_form(exterior_d(KForm.from_scalar(f)))


def dorfman(A: Section, B: Section) -> Section:
    """[X+xi, Y+eta] = [X,Y] + L_X eta - iota_Y d xi (reference route)."""
    if A.chart != B.chart:
        raise ChartMismatchError("sections on different charts")
    vec = lie_bracket(A.vec, B.vec)
    cov = lie_derivative(A.vec, B.cov) - interior(B.vec, exterior_d(A.cov))
    return Section(vec, cov)


def dorfman_twisted(A: Section, B: Section, H: FluxForm | None,
                    strict: bool = True) -> Section:
    """H-twisted bracket: dorfman(A, B) - iota_Y iota_X H; H=None is the
    zero flux.

    With strict=True (the default) a non-closed H is rejected, since the
    twisted bracket only satisfies the Jacobi identity for closed H.
    """
    if H is None or H.is_zero:
        return dorfman(A, B)
    if strict and not H.closed:
        raise NonClosedFluxError("flux 3-form is not closed")
    base = dorfman(A, B)
    contr = interior(B.vec, interior(A.vec, H.H))
    return Section(base.vec, base.cov - contr)


# ---------------------------------------------------------------------------
# Kernel fast path on raw polynomial components.

def section_kernel_components(A: Section):
    """Kernel layout (list of 2n term dicts) if all components are
    polynomial, else None."""
    out = []
    for f in A.to_components():
        if not f.is_polynomial:
            return None
        out.append(f.num.terms)
    return out


def section_from_kernel(chart, comps):
    return Section.from_components(
        chart, [ScalarField.from_poly(Poly(chart, t)) for t in comps])


def frame_sections(chart: Chart):
    """The 2n coordinate frame sections (d_1..d_n, dx^1..dx^n)."""
    return [Section.frame(chart, a) for a in range(2 * chart.dim)]


def monomials_up_to(chart: Chart, degree: int):
    """All monomials of total degree <= degree as Poly, in a fixed order."""
    out = []

    def rec(prefix, rest, budget):
        if not rest:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], rest - 1, budget - e)

    rec([], chart.dim, degree)
    out.sort(key=lambda m: (sum(m), m))
    return [Poly(chart, {K.mono(m): K.C_ONE}) for m in out]
