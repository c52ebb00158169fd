"""Generalized (almost) complex and real structures on TM + T*M, the
generalized metric, B-field transforms, and the Nijenhuis-type tensors with
their vanishing sweeps.

An EndField is a 2n x 2n matrix of ScalarFields acting on sections, carrying
the flux against which its integrability is judged (mixing structures with
different fluxes in one concomitant is an error).

Vanishing of a tensor is decided for all smooth sections by a Leibniz-symbol
certificate.  Every Nijenhuis-type tensor here is first order in each
argument and has no df.dg term: both Leibniz rules of the Dorfman bracket,
[fA,B] = f[A,B] - (rho(B)f)A + 2<A,B>Df and [A,gB] = g[A,B] + (rho(A)g)B,
are first order, and the H-twist is C-infinity-bilinear.  So

    N(f e_a, g e_b) = fg N0 + g sum_k d_k f P_k + f sum_k d_k g Q_k,

and N0, P_k and Q_k are read exactly from the generator pairs (e_a, e_b),
(x_k e_a, e_b) and (e_a, x_k e_b), the pairs of total monomial degree <= 1.
If the tensor vanishes there, it vanishes on every section; the argument
holds over a rational base too.  The structures can prove more, exactly on
their numerators (``_tensoriality``).  The second slot's Leibniz terms
(rho(A)g)B cancel in pairs in every concomitant, and in N_J or N_G exactly
when J^2 = -Id or G^2 = Id; then Q_k = 0 and the pairs (e_a, x_k e_b) are
dropped: 2n * 2n * (1 + n) pairs per tensor (320 at n = 4) instead of
2n * 2n * (1 + 2n) (576).  When moreover J is skew-adjoint for the pairing
(N_J), or I and J are and IJ + JI is a constant multiple of Id (N(I,J)),
the first slot's Leibniz terms cancel too and N(A,B) = -N(B,A) (Gualtieri,
arXiv:math/0401221): the tensor is C-infinity-bilinear and skew, so the
frame pairs (e_a, e_b) with a < b decide it, 2n(2n - 1)/2 pairs (28 at
n = 4).  For N_J fewer pairs decide it: take a J-complex frame, frame
elements e_R that, with J e_R, span the fiber at one point, n of them when
J is real there, and split it into two halves in index order.  The
involutivity tensor <[A,B],C> of each eigenbundle of J is totally skew, so
the pairs r < s within each half decide N_J (``_complex_frame``):
C(h, 2) + C(n - h, 2) pairs, h = floor(n/2), 2 at n = 4 (for the twistor
structure of a triple at n = 4, 12 of 120 pairs a < b; 30 of 276 at
n = 8).  N_G never is
C-infinity-bilinear: its first slot keeps 4<A,B>Df - 4<A,GB> G Df.  Nor
is N(I,J) of skew-adjoint, commuting I and J, but its Leibniz term
2g(<A,B> W - <A,WB>) Df and its symmetric part depend on W = IJ alone
(``_commuting_symbol``): for a constant W its residual against that closed
form, and for two pairs with one W their difference, is C-infinity-bilinear
and skew, and the frame pairs a < b decide it (``_commuting_residuals``;
Theorem 1.1's diagonal families, 28 pairs each instead of 320).  An
integer degree bound instead sweeps all pairs of frame sections times
monomials up to that degree, as an opt-in cross-check.

Every check -- ``vanishes``, the commuting-family check of Theorem 1.1 and
the twistor certificate of Theorem 1.3 -- runs the one kernel evaluator
``_eval_kernel`` over a fixed-denominator base (``_PowerDen``): sections are
numerators over powers of one polynomial m, the LCM of the denominators of
the structures and the flux times the integer that makes every numerator
integral, and m = 1 for polynomial input.  A structure enters as a
``_Structure``, its numerators with what a check reads of them; a triple
keeps one per structure (``clifford._Store``), shared by every family.  The
ScalarField formulas ``nijenhuis``, ``concomitant`` and ``real_nijenhuis``
are the independent reference the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import lcm

from ._core import kernel as K
from . import polygcd as G
from .scalar import Chart, ChartMismatchError, Poly, ScalarField
from .cartan import KForm
from .courant import (FluxForm, Section, dorfman_twisted,
                      frame_sections, monomials_up_to, section_from_kernel)

HALF = (1, 0, 2)


class FluxMismatchError(ValueError):
    pass


def _dot(row, col, zero):
    """sum a b over the pairs of ScalarFields (a, b) of row and col with
    neither zero, in order; zero when there is none."""
    acc = None
    for a, b in zip(row, col):
        if not (a.is_zero or b.is_zero):
            t = a * b
            acc = t if acc is None else acc + t
    return zero if acc is None else acc


def mat_mul(A, B):
    """Product of two square ScalarField matrices, each entry through
    ScalarField arithmetic (which takes no GCD for polynomial entries)."""
    zero = ScalarField.zero(A[0][0].chart)
    cols = list(zip(*B))
    return [[_dot(row, col, zero) for col in cols] for row in A]


def _mat_mul_terms(A, B):
    """Product of square matrices of kernel term dicts ({} for zero), row
    by row: each nonzero A[i][k] times each nonzero entry B[k][j] of B's
    row k is summed into one unnormalized accumulator per output entry
    (``K._p_mul_acc``), and each entry is normalized once."""
    rows = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for Ai in A:
        acc = [{} for _ in rows]
        for k, a in enumerate(Ai):
            if a:
                for j, b in rows[k]:
                    K._p_mul_acc(acc[j], a, b)
        out.append([K._normalize_acc(x) if x else x for x in acc])
    return out


def mat_inv(A, chart):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    size = len(A)
    M = [list(row) for row in A]
    I = [[ScalarField.one(chart) if i == j else ScalarField.zero(chart)
          for j in range(size)] for i in range(size)]
    for col in range(size):
        piv = next((r for r in range(col, size) if not M[r][col].is_zero), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        I[col], I[piv] = I[piv], I[col]
        inv = ScalarField.one(chart) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        I[col] = [x * inv for x in I[col]]
        for r in range(size):
            if r == col or M[r][col].is_zero:
                continue
            f = M[r][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
            I[r] = [a - f * b for a, b in zip(I[r], I[col])]
    return I


class EndField:
    """2n x 2n endomorphism field with optional flux."""

    __slots__ = ("chart", "entries", "flux")

    def __init__(self, chart: Chart, entries, flux: FluxForm | None = None):
        size = 2 * chart.dim
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != size or any(len(r) != size for r in entries):
            raise ValueError("entries must be a 2n x 2n matrix")
        for row in entries:
            for f in row:
                if f.chart != chart:
                    raise ChartMismatchError("entry on wrong chart")
        if flux is not None and flux.chart != chart:
            raise ChartMismatchError("flux on wrong chart")
        self.chart = chart
        self.entries = entries
        self.flux = flux

    @classmethod
    def identity(cls, chart, flux=None):
        size = 2 * chart.dim
        return cls(chart, [[ScalarField.one(chart) if i == j
                            else ScalarField.zero(chart)
                            for j in range(size)] for i in range(size)], flux)

    @classmethod
    def from_blocks(cls, chart, a, b, c, d, flux=None):
        """Assemble from n x n blocks [[a, b], [c, d]]."""
        n = chart.dim
        rows = []
        for i in range(n):
            rows.append(list(a[i]) + list(b[i]))
        for i in range(n):
            rows.append(list(c[i]) + list(d[i]))
        return cls(chart, rows, flux)

    def blocks(self):
        n = self.chart.dim
        a = [row[:n] for row in self.entries[:n]]
        b = [row[n:] for row in self.entries[:n]]
        c = [row[:n] for row in self.entries[n:]]
        d = [row[n:] for row in self.entries[n:]]
        return a, b, c, d

    @property
    def size(self):
        return 2 * self.chart.dim

    def with_flux(self, flux):
        return EndField(self.chart, self.entries, flux)

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatchError("endomorphisms on different charts")

    def __add__(self, other):
        self._check(other)
        return EndField(self.chart,
                        [[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.entries, other.entries)],
                        self.flux)

    def __sub__(self, other):
        self._check(other)
        return EndField(self.chart,
                        [[a - b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.entries, other.entries)],
                        self.flux)

    def __neg__(self):
        return EndField(self.chart, [[-a for a in r] for r in self.entries],
                        self.flux)

    def scale(self, c):
        return EndField(self.chart, [[a * c for a in r] for r in self.entries],
                        self.flux)

    def __matmul__(self, other):
        self._check(other)
        return EndField(self.chart, mat_mul(self.entries, other.entries),
                        self.flux)

    def inverse(self):
        return EndField(self.chart, mat_inv(self.entries, self.chart),
                        self.flux)

    def apply(self, A: Section) -> Section:
        if A.chart != self.chart:
            raise ChartMismatchError("section on wrong chart")
        comps, zero = A.to_components(), ScalarField.zero(self.chart)
        return Section.from_components(
            self.chart, [_dot(row, comps, zero) for row in self.entries])

    def column(self, j) -> Section:
        return Section.from_components(self.chart,
                                       [row[j] for row in self.entries])

    @property
    def is_constant(self):
        return all(f.is_constant for row in self.entries for f in row)

    @property
    def is_zero(self):
        return all(f.is_zero for row in self.entries for f in row)

    def entries_equal(self, other):
        return self.chart == other.chart and self.entries == other.entries

    def __eq__(self, other):
        if not isinstance(other, EndField):
            return NotImplemented
        return self.entries_equal(other) and _flux_eq(self.flux, other.flux)

    def __hash__(self):
        return hash((self.chart, self.entries))

    def __repr__(self):
        return f"EndField({self.size}x{self.size} on {self.chart!r})"


def _flux_eq(a, b):
    if a is None or (isinstance(a, FluxForm) and a.is_zero):
        return b is None or (isinstance(b, FluxForm) and b.is_zero)
    return a == b


def _pairing_endfield(chart):
    half = ScalarField.constant(chart, Fraction(1, 2))
    zero = ScalarField.zero(chart)
    n = chart.dim
    size = 2 * n
    return [[half if j == (i + n) % size else zero for j in range(size)]
            for i in range(size)]


def is_orthogonal(E: EndField) -> bool:
    """E^T P E = P identically, P the neutral pairing matrix."""
    P = _pairing_endfield(E.chart)
    lhs = mat_mul(mat_mul([list(r) for r in zip(*E.entries)], P), list(map(list, E.entries)))
    return all(a == b for r1, r2 in zip(lhs, P) for a, b in zip(r1, r2))


def is_almost_gcs(E: EndField) -> bool:
    """Orthogonal and E^2 = -Id."""
    sq = E @ E
    return sq.entries_equal(EndField.identity(E.chart).scale(
        ScalarField.constant(E.chart, -1))) and is_orthogonal(E)


def is_almost_real(G: EndField) -> bool:
    """Orthogonal and G^2 = Id."""
    return _is_involution(G) and is_orthogonal(G)


# ---------------------------------------------------------------------------
# Nijenhuis-type tensors.

def _common_flux(*structs, override=None):
    fluxes = [s.flux for s in structs]
    base = fluxes[0]
    for f in fluxes[1:]:
        if not _flux_eq(base, f):
            raise FluxMismatchError(
                "structures carry different fluxes; refusing to mix brackets")
    if override is not None:
        if base is not None and not _flux_eq(base, override):
            raise FluxMismatchError("explicit flux conflicts with structure flux")
        return override
    return base


def nijenhuis(J: EndField, A: Section, B: Section,
              H: FluxForm | None = None) -> Section:
    """N_J(A,B) = [JA,JB] - J[JA,B] - J[A,JB] - [A,B] (twisted bracket)."""
    flux = _common_flux(J, override=H)
    if A.chart != J.chart or B.chart != J.chart:
        raise ChartMismatchError("sections on wrong chart")
    br = partial(dorfman_twisted, H=flux, strict=False)
    JA, JB = J.apply(A), J.apply(B)
    return (br(JA, JB) - J.apply(br(JA, B)) - J.apply(br(A, JB))
            - br(A, B))


def concomitant(I: EndField, J: EndField, A: Section, B: Section,
                H: FluxForm | None = None) -> Section:
    """Symmetrized mixed Nijenhuis tensor N(I,J), the 8-term expression."""
    if I.chart != J.chart:
        raise ChartMismatchError("structures on different charts")
    flux = _common_flux(I, J, override=H)
    br = partial(dorfman_twisted, H=flux, strict=False)
    IA, IB = I.apply(A), I.apply(B)
    JA, JB = J.apply(A), J.apply(B)
    out = (br(IA, JB) + br(JA, IB)
           - I.apply(br(A, JB)) - I.apply(br(JA, B))
           - J.apply(br(A, IB)) - J.apply(br(IA, B))
           + I.apply(J.apply(br(A, B)))
           + J.apply(I.apply(br(A, B))))
    return out.scale(ScalarField.constant(I.chart, Fraction(1, 2)))


def _is_involution(G):
    return (G @ G).entries_equal(EndField.identity(G.chart))


def real_nijenhuis(G: EndField, A: Section, B: Section,
                   H: FluxForm | None = None) -> Section:
    """N_G(A,B) = [GA,GB] - G[GA,B] - G[A,GB] + [A,B] (note the + sign).

    Requires the involution G^2 = Id (which is all the formula needs); the
    full almost-real condition additionally asks for orthogonality and is
    checked by ``is_almost_real``.
    """
    if not _is_involution(G):
        raise ValueError("structure is not an involution (G^2 != Id)")
    flux = _common_flux(G, override=H)
    br = partial(dorfman_twisted, H=flux, strict=False)
    GA, GB = G.apply(A), G.apply(B)
    return (br(GA, GB) - G.apply(br(GA, B)) - G.apply(br(A, GB))
            + br(A, B))


# ---------------------------------------------------------------------------
# Bound tensors and the vanishing sweep.

@dataclass(frozen=True)
class BoundTensor:
    """A Nijenhuis-type tensor bound to its structures and flux."""

    kind: str                 # "nijenhuis" | "concomitant" | "real_nijenhuis"
    name: str
    structures: tuple
    flux: FluxForm | None
    # products of the structures a caller has proven, each (sign, X) for
    # sign X with X a ``_Structure`` of the triple's store, or None for Id:
    # (S S,) for N_S, (I J, J I) or (I J, J I, I J + J I) for N(I, J); ()
    # to multiply them (``_kernel_setup``)
    products: tuple = field(default=(), compare=False, repr=False)
    # the structures' records in the triple's store, () to build them
    numerators: tuple = field(default=(), compare=False, repr=False)

    @property
    def chart(self):
        return self.structures[0].chart

    def evaluate(self, A: Section, B: Section) -> Section:
        if self.kind == "nijenhuis":
            return nijenhuis(self.structures[0], A, B, self.flux)
        if self.kind == "concomitant":
            return concomitant(self.structures[0], self.structures[1], A, B,
                               self.flux)
        return real_nijenhuis(self.structures[0], A, B, self.flux)


def bind_nijenhuis(J: EndField, name: str = "N(J,J)",
                   flux: FluxForm | None = None,
                   square: tuple | None = None) -> BoundTensor:
    """N_J; square is J J as (sign, X) (``BoundTensor.products``) when the
    caller has proven it."""
    return BoundTensor("nijenhuis", name, (J,), _common_flux(J, override=flux),
                       () if square is None else (square,))


def bind_concomitant(I: EndField, J: EndField, name: str = "N(I,J)",
                     flux: FluxForm | None = None,
                     products: tuple = ()) -> BoundTensor:
    """N(I, J); products is (I J, J I) as (sign, X) pairs
    (``BoundTensor.products``) when the caller has proven them."""
    return BoundTensor("concomitant", name, (I, J),
                       _common_flux(I, J, override=flux), products)


def bind_real_nijenhuis(G: EndField, name: str = "N_G",
                        flux: FluxForm | None = None) -> BoundTensor:
    if not _is_involution(G):
        raise ValueError("structure is not an involution (G^2 != Id)")
    return BoundTensor("real_nijenhuis", name, (G,),
                       _common_flux(G, override=flux))


@dataclass
class TensorReport:
    """Outcome of one tensor check.  method is "symbol_certificate"
    (degree_bound None: decided for all smooth sections) or "sweep" (all
    generator pairs up to the integer degree_bound).  identity names what
    vanished=True asserts: "vanishes" (the tensor is zero),
    "anomaly_matched" (a commuting concomitant equals its closed-form
    Dorfman-Leibniz anomaly, ``clifford._commuting_family_report``) or
    "difference" (two commuting concomitants with the same W = I J agree;
    the name is "N(I',J')-N(I,J)")."""

    name: str
    vanished: bool
    degree_bound: int | None
    sample_count: int
    witnesses: list = field(default_factory=list)
    method: str = "sweep"
    identity: str = "vanishes"

    @property
    def checks(self):
        """The number of pairs evaluated, sample_count."""
        return self.sample_count


def generator_labels(chart, degree_bound):
    """Deterministic labels for the frame x monomial generator set."""
    n = chart.dim
    labels = []
    frames = [f"d{i + 1}" for i in range(n)] + [f"e{i + 1}" for i in range(n)]
    monos = monomials_up_to(chart, degree_bound)
    for a, fr in enumerate(frames):
        for m in monos:
            ms = str(m)
            labels.append(fr if ms == "1" else f"{ms}*{fr}")
    return labels


def _kernel_generators(chart, degree_bound):
    """Kernel-layout generator sections (single-monomial components)."""
    out = []
    n = chart.dim
    monos = monomials_up_to(chart, degree_bound)
    for a in range(2 * n):
        for m in monos:
            sec = [{} for _ in range(2 * n)]
            sec[a] = dict(m.terms)
            out.append(sec)
    return out


class _PowerDen:
    """Sections P / m^k over one fixed base polynomial m, kept as numerator
    term dicts; the caller tracks the exponents k.

    Zero testing needs only the numerators, so no GCD is taken once m is
    chosen.  The unit base m = 1 (``unit``) serves polynomial input: its
    derivative is plain K.p_diff and lifting returns its argument.

    Every other base is integral: m and the numerators over m^k, k >= 1,
    of the fields it was built for have Gaussian-integer coefficients
    (denominator 1).  ``lcm`` folds into m the integer L that clears the
    denominators of the coefficients (``twistor._ihat`` does the same for
    the sphere base), and gives polynomial fields with rational
    coefficients the base m = L when asked (the product table of a
    constant rational triple).  Products, quotient-rule derivatives
    (m d_t P - k P d_t m) and sums of integral numerators are integral, so
    every Jacobian, bracket and structure application of a check stays
    integral: the kernel's accumulators add numerators over the one
    denominator 1 and never merge two denominators, and ``K.c_make``
    takes no gcd.  Scaling m by L != 0 changes no zero test, and
    ``section`` normalizes to a monic denominator, which cancels L from
    every witness.
    """

    def __init__(self, chart, m_terms=None):
        one = {0: K.C_ONE}
        self.chart = chart
        self.n = chart.dim
        self.unit = m_terms is None
        self.m = one if self.unit else m_terms
        self.dm = [K.p_diff(self.m, t) for t in range(chart.dim)]
        self._pows = {0: one, 1: dict(self.m)}
        self._diffs = {}
        self.cache = {}     # generators' operands (``_operand``)

    @classmethod
    def lcm(cls, chart, fields, integral=False):
        """The base over L m, m the LCM of the denominators of the
        ScalarFields and L a positive integer that makes L m and every
        field's numerator over L m integral; the unit base, with no GCD
        taken, when all of them are polynomial, unless integral asks for
        the base L (m = 1) when some coefficient is not a Gaussian integer.

        A field f = num / den has the numerator num (m / den) over m, whose
        coefficient denominators divide D(num) D(m / den), D(p) the LCM of
        p's coefficient denominators (``_den_lcm``); L is the LCM of D(m)
        and of those products, so no product is taken here."""
        m = None
        dens = dict.fromkeys(f.den for f in fields if not f.is_polynomial)
        for den in dens:
            d = den.terms
            if m is None:
                m = d
            elif G.p_divexact(m, d) is None:
                m = K.p_mul(m, G.p_divexact(d, G.p_gcd(m, d)))
        if m is None and not integral:
            return cls(chart)
        m = m or {0: K.C_ONE}
        L = dm = _den_lcm(m.values())
        quo = {den: _den_lcm(G.p_divexact(m, den.terms).values())
               for den in dens}
        for f in fields:
            if not f.is_zero:
                L = lcm(L, _den_lcm(f.num.terms.values())
                        * quo.get(f.den, dm))
        if L == 1 and m == {0: K.C_ONE}:
            return cls(chart)
        return cls(chart, K.p_scale(m, (L, 0, 1)))

    def mpow(self, k):
        if k not in self._pows:
            self._pows[k] = K.p_mul(self.mpow(k - 1), self.m)
        return self._pows[k]

    def diff(self, k):
        """The derivative (comp, t) -> numerator of d/dx_t (comp / m^k) over
        m^(k+1), i.e. m d_t comp - k comp d_t m, both products summed in
        one accumulator and normalized once; one closure per k."""
        if self.unit:
            return K.p_diff
        fn = self._diffs.get(k)
        if fn is None:
            m = self.m
            kdm = [K.p_scale(d, (k, 0, 1)) for d in self.dm]

            def fn(comp, t):
                acc = {}
                dc = K.p_diff(comp, t)
                if dc:
                    K._p_mul_acc(acc, m, dc)
                if comp and kdm[t]:
                    K._p_mul_sub_acc(acc, comp, kdm[t])
                return K._normalize_acc(acc) if acc else acc
            self._diffs[k] = fn
        return fn

    def jacobian(self, P, k):
        """Jacobian of the section P / m^k: numerators over m^(k+1)."""
        return K.sec_jacobian(self.n, P, self.diff(k))

    def operand(self, P, k):
        """(P, its Jacobian) for the section P over m^k."""
        return P, self.jacobian(P, k)

    def lift(self, P, j, target):
        if j == target or self.unit:
            return P
        f = self.mpow(target - j)
        return [K.p_mul(p, f) if p else {} for p in P]

    def numerator(self, f, k=1):
        """Numerator of the ScalarField f over m^k."""
        if self.unit or f.is_zero:
            return f.num.terms
        mult = (self.mpow(k) if f.is_polynomial else
                G.p_divexact(self.mpow(k), f.den.terms))
        if mult is None:
            raise ValueError("denominator does not divide the base power")
        return K.p_mul(f.num.terms, mult)

    def numerators(self, E: EndField):
        """Dense rows of the numerators of E's entries over m^1."""
        return [[self.numerator(f) for f in row] for row in E.entries]

    def endfield(self, M, flux=None):
        """The EndField whose entries have the dense numerators M over m,
        each entry normalized once (wrapped as it is over the unit base,
        where it is a polynomial)."""
        den = Poly(self.chart, self.m)
        field = ScalarField._unchecked if self.unit else ScalarField
        zero = ScalarField.zero(self.chart)
        return EndField(self.chart, [[field(Poly(self.chart, p), den)
                                      if p else zero for p in row]
                                     for row in M], flux)

    def section(self, P, k):
        """The Section with numerators P over m^k."""
        if self.unit:
            return section_from_kernel(self.chart, P)
        den = Poly(self.chart, self.mpow(k))
        return Section.from_components(
            self.chart, [ScalarField(Poly(self.chart, p), den) for p in P])


def _den_lcm(coeffs):
    """The LCM of the denominators of the kernel coefficients: the least
    positive integer L with L c a Gaussian integer for every c."""
    return lcm(1, *(c[2] for c in coeffs))


def _sparse_rows(M, const):
    """Kernel matrix layout of a dense matrix of term dicts: rows of
    (col, coefficient) pairs when const, else of (col, polynomial) pairs."""
    if const:
        return [[(j, next(iter(p.values()))) for j, p in enumerate(row) if p]
                for row in M]
    return [[(j, p) for j, p in enumerate(row) if p] for row in M]


def _memo(cache, key, build):
    """cache[key], built by build() at its first use (every time for key
    None)."""
    if key is None:
        return build()
    if key not in cache:
        cache[key] = build()
    return cache[key]


class _Structure:
    """A structure as dense numerator rows over m^1 of one base m, with
    what a family's setup reads of it, each built once and shared by every
    family that reads the structure over that base: the kernel layout
    (``kernel``), the skew-adjointness verdict (``skew``), the image and
    Jacobian of each generator (``image``), and the structure over a
    multiple of m (``over``) and its signed rows over m^2 (``signed``).

    A triple's structures (``clifford._Store``) are kept over their own
    bases (``own``), one base object per polynomial m, so that the
    families over one base share one base object and one record per
    structure.  A polynomial structure is over the unit base, so a
    constant one keeps the constant layout (``K.mat_apply_const``) and
    plain partials."""

    def __init__(self, base, rows):
        self.base, self.rows, self.cache = base, rows, {}

    @classmethod
    def own(cls, base, rows, k, bases):
        """The structure with the numerators rows over base.m^k, over its
        own base, taken from bases (by m): the unit base when m is a
        constant, so that the structure is polynomial (its rows divided by
        m^k), else the base ``_PowerDen.lcm`` gives its entries in lowest
        terms (each normalized once, here)."""
        mk = base.mpow(k)
        if any(mk):
            E = _PowerDen(base.chart, mk).endfield(rows)
            own = _PowerDen.lcm(base.chart, [f for r in E.entries for f in r])
            rows = own.numerators(E)
        else:
            own, c = _PowerDen(base.chart), K.c_inv(mk[0])
            rows = [[K.p_scale(p, c) for p in row] for row in rows]
        return cls(bases.setdefault(frozenset(own.m.items()), own), rows)

    @cached_property
    def const(self):
        """Constant entries over the unit base, where a numerator is its
        entry: constant iff its only monomial is the constant one, 0."""
        return self.base.unit and not any(mono for row in self.rows
                                          for p in row for mono in p)

    @cached_property
    def kernel(self):
        """The kernel matrix layout: constant coefficients when const."""
        return _sparse_rows(self.rows, self.const)

    @cached_property
    def skew(self):
        return _skew_adjoint(self.rows)

    def apply(self, A):
        app = K.mat_apply_const if self.const else K.mat_apply_poly
        return app(self.kernel, A)

    def image(self, A, key=None):
        """(S A, its Jacobian) over m^1 for a generator A over m^0, built
        once per key, A's place among ``_kernel_generators``."""
        return _memo(self.cache, key,
                     lambda: self.base.operand(self.apply(A), 1))

    def lift(self, base, k=1):
        """The numerators over base.m^k, a multiple of this base's m."""
        if base.unit:
            return self.rows
        f = G.p_divexact(base.mpow(k), self.base.m)
        return [[K.p_mul(p, f) if p else {} for p in row] for row in self.rows]

    def signed(self, base, sign):
        """The integer sign times the numerators over base.m^2, built once
        per base and sign (``_signed_numerators``)."""
        return _memo(self.cache, (base, sign), lambda: [
            [K.p_scale(p, (sign, 0, 1)) if p else {} for p in row]
            for row in self.lift(base, 2)])

    def over(self, base):
        """This structure over base, whose m is a multiple of this base's
        m: itself over its own base, else a record built once per base."""
        return self if base is self.base else _memo(
            self.cache, base,
            lambda: _Structure(base, self.lift(base)))


def _family_base(*tensors):
    """The base of the tensors, one family or a family and its partner:
    the one base of the structures' records in a triple's store
    (``BoundTensor.numerators``) when every structure has a record, they
    share it and there is no flux; else the LCM of the denominators of the
    structures' entries and of the flux coefficients (``_PowerDen.lcm``)."""
    bases = {S.base for t in tensors for S in t.numerators}
    flux = {} if tensors[0].flux is None else tensors[0].flux.H.coeffs
    if len(bases) == 1 and all(t.numerators for t in tensors) and not flux:
        return bases.pop()
    return _PowerDen.lcm(tensors[0].chart, [
        f for t in tensors for S in t.structures for row in S.entries
        for f in row] + list(flux.values()))


def _kernel_setup(tensor: BoundTensor, base: _PowerDen | None = None):
    """(mats, kflux, structs, square) for _eval_kernel and _tensoriality:
    the base (``_family_base`` unless given), the structures over it as
    ``_Structure``s (the records of the triple's store the tensor carries,
    lifted by ``_Structure.over``, or else their numerators over it), the
    flux coefficients as numerators over m^1
    (None for zero flux), and the dense numerators over m^2 of S S for one
    structure S, of I J + J I for a concomitant N(I, J).  The products the
    tensor carries as proven (``BoundTensor.products``) are read over the
    base, as signed rows of the store, not multiplied."""
    if base is None:
        base = _family_base(tensor)
    recs = [S.over(base) for S in tensor.numerators] or [
        _Structure(base, base.numerators(S)) for S in tensor.structures]
    flux = {} if tensor.flux is None else tensor.flux.H.coeffs
    kflux = {idx: base.numerator(f) for idx, f in flux.items()}
    size = len(recs[0].rows)
    proven = [_signed_numerators(base, size, sign, X)
              for sign, X in tensor.products]
    return _numerator_setup(tensor.kind, base, recs, kflux or None,
                            proven or None)


def _signed_numerators(base, size, sign, X):
    """sign X as dense numerators over m^2, X a ``_Structure`` or None for
    the identity.  A product of two structures' numerators over m^1 is the
    numerator over m^2 of their product, so when the caller has proven
    S T = sign X this is the product S T, read instead of multiplied.  X's
    denominators divide m^2: X = sign S T, whose entries are sums of
    products of entries over m."""
    if X is not None:
        return X.signed(base, sign)
    d = K.p_scale(base.mpow(2), (sign, 0, 1))
    return [[d if i == j else {} for j in range(size)] for i in range(size)]


def _numerator_setup(kind, base, structs, kflux, products=None):
    """``_kernel_setup``'s tuple from the structures (``_Structure``s over
    base) and the flux numerators (kflux, None for zero flux).  For a
    concomitant, mats["products"] holds the dense I J and J I over m^2.  A
    caller that has proven the structures' products may pass their dense
    numerators over m^2 as products, (S S,) for N_J or N_G and (I J, J I)
    or (I J, J I, I J + J I) for a concomitant; otherwise they are
    multiplied."""
    mats = {"base": base, "J": structs[-1]}
    if kind == "concomitant":
        I, J = structs
        IJ, JI, *square = products or (_mat_mul_terms(I.rows, J.rows),
                                       _mat_mul_terms(J.rows, I.rows))
        mats["I"] = I
        mats["products"] = (IJ, JI)
        square = square[0] if square else [
            [K.p_add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(IJ, JI)]
        mats["IJ+JI"] = _Structure(base, square)
    else:
        square, = products or (_mat_mul_terms(structs[0].rows,
                                              structs[0].rows),)
    return mats, kflux, structs, square


def _identity_multiple(M, m2):
    """The constant c with M = c m2 Id (M and m2 numerators over one power
    of the base), or None when M is not a constant multiple of m2 Id."""
    c = _constant_ratio(M[0][0], m2)
    if c is not None and all(e == (M[0][0] if i == j else {})
                             for i, row in enumerate(M)
                             for j, e in enumerate(row)):
        return c
    return None


def _constant_ratio(p, m2):
    """The constant c with p = c m2 (p and m2 numerators over one power of
    the base), or None when p is not a constant multiple of m2."""
    mono, lead = next(iter(m2.items()))
    c = K.c_mul(p.get(mono, K.C_ZERO), K.c_inv(lead))
    return c if K.p_scale(m2, c) == p else None


def _skew_adjoint(S):
    """<SA, B> + <A, SB> = 0 for the pairing <A, B> = A^T P B, P_ij = 1/2
    iff j = i + n mod 2n: S^T P + P S = 0, entrywise
    S[(i+n)%2n][j] + S[(j+n)%2n][i] = 0.  Exact on numerators."""
    size = len(S)
    n = size // 2
    return all(not K.p_add(S[(i + n) % size][j], S[(j + n) % size][i])
               for i in range(size) for j in range(i, size))


def _tensoriality(kind, base, structs, square):
    """What the structures prove about the tensor's Leibniz symbol, decided
    exactly on their numerators over m^1 (``_Structure``s, square over
    m^2, from _kernel_setup): "skew" when the tensor is C-infinity-bilinear
    and skew, "second_slot" when only Q_k = 0 is proven, None otherwise.

    From [A, gB] = g[A,B] + (rho(A)g)B, [fA, B] = f[A,B] - (rho(B)f)A
    + 2<A,B>Df, [A,B] + [B,A] = 2D<A,B> and the C-infinity-bilinear, skew
    H-twist:

        N_J(A, gB)    = g N_J(A,B) - (rho(A)g)(J^2 + 1)B
        N_G(A, gB)    = g N_G(A,B) - (rho(A)g)(G^2 - 1)B
        N(I,J)(A, gB) = g N(I,J)(A,B)          (the six rho(.)g terms cancel)

    so Q_k = 0 for a concomitant always, for N_J iff J^2 = -Id and for N_G
    iff G^2 = Id.  In the first slot and under the swap of the slots:

    - N_J, with J^2 = -Id and J skew-adjoint (so <JA,JB> = <A,B>): the
      (rho(B)f) terms carry J^2 + 1 and the Df terms carry <JA,JB> - <A,B>
      and <JA,B> + <A,JB>, so P_k = 0; N_J(A,B) + N_J(B,A) is
      2D(<JA,JB> - <A,B>) - 2J D(<JA,B> + <A,JB>) = 0.
    - N(I,J), with I and J skew-adjoint and IJ + JI = lambda Id: the
      (rho(.)f) terms cancel for any I, J and the Df terms leave
      (<IA,JB> + <JA,IB> + lambda <A,B>) Df = 0, so P_k = 0; the symmetric
      part N(A,B) + N(B,A) = -<A,B> D lambda vanishes iff lambda is
      constant.
    - N_G never: its Df terms leave 4<A,B>Df - 4<A,GB> G Df.

    A C-infinity-bilinear skew tensor vanishes iff it vanishes on the frame
    pairs (e_a, e_b) with a < b."""
    m2 = base.mpow(2)
    c = _identity_multiple(square, m2)
    if kind == "real_nijenhuis":
        return "second_slot" if c == K.C_ONE else None
    if kind == "nijenhuis":
        if c != K.c_neg(K.C_ONE):
            return None
        return "skew" if structs[0].skew else "second_slot"
    if c is not None and all(S.skew for S in structs):
        return "skew"
    return "second_slot"


def _commuting_product(setup):
    """W = I J as numerators over m^2 when I and J (a concomitant's
    ``_kernel_setup``) are skew-adjoint and I J = J I exactly, else None;
    read from the products the setup already holds."""
    mats, _, (I, J), _ = setup
    if not (I.skew and J.skew):
        return None
    IJ, JI = mats["products"]
    return IJ if IJ == JI else None


def _commuting_symbol(setup, partner=None):
    """(identity, skew) for a concomitant N(I, J) of commuting structures,
    decided exactly on the ``_kernel_setup`` of N(I, J) (the numerators
    over m^1 of I and J, and I J, J I over m^2) and, for a difference, on
    that of a partner pair N(I', J') over the same base.  identity names
    what the family is measured against (``TensorReport.identity``); skew
    is True when the structures prove the residual C-infinity-bilinear and
    skew, so that the frame pairs a < b decide it.

    - ("anomaly_matched", skew) when W = I J is constant: N must equal the
      closed form 2g(<e_a,e_b> W - <e_a,W e_b>) Df on (f e_a, g e_b)
      (``clifford._commuting_family_report``); skew iff I and J are
      skew-adjoint and I J = J I.
    - ("difference", True) when W is not constant, I and J are
      skew-adjoint and commute, and so do I' and J', with I' J' = W: the
      difference N(I',J') - N(I,J) must vanish.
    - ("vanishes", False) otherwise: no closed form applies, and N itself
      must vanish.

    For skew-adjoint, commuting I and J, exactly,

        N(I,J)(fA, gB) = fg N(I,J)(A,B) + 2g(<A,B> W - <A,WB>) Df,
        N(I,J)(A, B) + N(I,J)(B, A) = 2(W D<A,B> - D<A,WB>).

    The second slot's rho(.)g terms cancel for any concomitant
    (``_tensoriality``).  In the first slot the rho(.)f terms cancel for any
    I and J; the Df terms are (<IA,JB> + <JA,IB>) Df - (<A,JB> + <JA,B>)
    I Df - (<A,IB> + <IA,B>) J Df + <A,B> (IJ + JI) Df, where the I Df and
    J Df terms carry <A,JB> + <JA,B> = 0 and <A,IB> + <IA,B> = 0, and
    <IA,JB> = <JA,IB> = -<A,WB>.  The symmetric part follows the same way
    from [A,B] + [B,A] = 2D<A,B>.  The H-twist is C-infinity-bilinear and
    skew, so it adds to neither.  Both right-hand sides depend on W alone.

    - W constant: the frames pair to constants, <e_a,e_b> and
      <e_a, W e_b> alike, so N(e_a,e_b) = -N(e_b,e_a), and the residual N
      minus the closed form is C-infinity-bilinear and skew and equals N
      on the frame pairs.  It vanishes iff N vanishes on the frame pairs
      (e_a, e_b) with a < b.
    - I' J' = W as well: the difference N(I',J') - N(I,J) has neither a
      Leibniz term nor a symmetric part, so it is C-infinity-bilinear and
      skew, and the frame pairs a < b decide it.  This holds for any W,
      so the frame the pairs are read in does not matter.  For W = -G it
      is how the diagonal families of Theorem 1.1 are compared (Gualtieri,
      arXiv:math/0401221 and arXiv:1007.3485: -IJ = G for a generalized
      Kaehler pair).

    Without skew-adjointness or I J = J I the Df terms keep I Df and J Df
    and the proof fails; the residual still has Q_k = 0, since the closed
    form only multiplies by g."""
    W = _commuting_product(setup)
    m2 = setup[0]["base"].mpow(2)
    product = W if W is not None else setup[0]["products"][0]
    # over the unit base, a numerator is constant iff its only monomial is 0
    if (not any(mono for row in product for p in row for mono in p)
            if setup[0]["base"].unit else
            all(_constant_ratio(p, m2) is not None for row in product
                for p in row)):
        return "anomaly_matched", W is not None
    if W is not None and partner is not None and \
            _commuting_product(partner) == W:
        return "difference", True
    return "vanishes", False


def _operand(kind, mats, A, key=None):
    """Everything _eval_kernel needs of one generator A (numerators over
    m^0): (section, Jacobian) for A over m^0, then for J A and, for a
    concomitant, I A over m^1.  With key, A's place among the generators,
    each is built once per base and structure (``_PowerDen.operand``,
    ``_Structure.image``), not once per family."""
    base = mats["base"]
    out = [_memo(base.cache, key, lambda: base.operand(A, 0))]
    for s in ("J", "I") if kind == "concomitant" else ("J",):
        out.append(mats[s].image(A, key))
    return out


def _eval_kernel(kind, mats, kflux, n, A, B):
    """Numerators over m^3 of the tensor on two generators, given as their
    ``_operand``s; the structures and the flux are numerators over m^1.

    A bracket of P / m^j and Q / m^k is the numerator over m^(j+k+1), and
    applying a structure adds 1 to the exponent.  So every term lands on
    m^3, except [A, B] of N_J and N_G, which is lifted from m^1 by m^2.
    Brackets that enter one structure are summed first, so each structure
    is applied once: N_J(A,B) = [JA,JB] - J([JA,B] + [A,JB]) - [A,B].

    A zero bracket (``K.sec_dorfman`` returns one at once for operands
    with all-zero Jacobians and no flux) is passed through: no structure
    is applied to it and no section is added (a pair none of whose
    operands has a Jacobian entry is skipped before, by ``_pairs``).
    """
    def dor(P, Q):
        return K.sec_dorfman(n, P[0], Q[0], kflux, P[1], Q[1])

    def apply(S, T):
        return mats[S].apply(T) if any(T) else T
    if kind != "concomitant":
        (a, ja), (b, jb) = A, B
        ab = mats["base"].lift(dor(a, b), 1, 3)
        # N_J ends in - [A,B]; the real N_G ends in + [A,B]
        return _signed_sum([(1, dor(ja, jb)),
                            (-1, apply("J", _signed_sum([(1, dor(ja, b)),
                                                         (1, dor(a, jb))]))),
                            (-1 if kind == "nijenhuis" else 1, ab)])
    (a, ja, ia), (b, jb, ib) = A, B
    out = _signed_sum([
        (1, dor(ia, jb)), (1, dor(ja, ib)),
        (-1, apply("I", _signed_sum([(1, dor(a, jb)), (1, dor(ja, b))]))),
        (-1, apply("J", _signed_sum([(1, dor(a, ib)), (1, dor(ia, b))]))),
        (1, apply("IJ+JI", dor(a, b)))])
    return [K.p_scale(p, HALF) for p in out]


def _signed_sum(terms):
    """The section sum of s S over the (s, S) terms, s = 1 or -1, skipping
    zero components, so a sum of zero sections costs only the tests.  The
    terms are sections of one size; the sum shares no dict with them."""
    out = [{} for _ in terms[0][1]]
    for s, S in terms:
        if any(S):
            op = K.p_add if s > 0 else K.p_sub
            for c, p in enumerate(S):
                if p:
                    out[c] = op(out[c], p)
    return out


def _at(p, i, v):
    """The polynomial p with x_i set to the integer v."""
    out = {}
    step = K.var(i)
    for mono, c in p.items():
        e = K.exponent(mono, i)
        if e:
            mono -= e * step
            c = K.c_mul(c, (v ** e, 0, 1))
        if mono in out:
            c = K.c_add(out[mono], c)
        out[mono] = c
    return {mono: c for mono, c in out.items() if c != K.C_ZERO}


def _base_point(base):
    """The first point of the grid {0..deg m}^n in lex order where the base
    m does not vanish: the origin when m(0) != 0.

    m has degree <= d = deg m in each variable, and a nonzero polynomial of
    degree <= d in x_i cannot vanish at d + 1 values of x_i; so by induction
    m vanishes on the whole grid only if it is zero.  The same argument on
    the remaining variables makes the coordinate-by-coordinate choice below
    (the least v with m(p_1, .., p_(i-1), v, x_(i+1), ..) not the zero
    polynomial) the lex-first point: n(d + 1) substitutions at most."""
    d = max(K.degree(mono) for mono in base.m)
    p, point = base.m, []
    for i in range(base.n):
        v = next(v for v in range(d + 1) if _at(p, i, v))
        p = _at(p, i, v)
        point.append(v)
    return point


def _value(p, point):
    """p at the integer point, as a kernel coefficient (None for zero); at
    the origin, the constant term."""
    if not any(point):
        return p.get(0)
    for i, v in enumerate(point):
        p = _at(p, i, v)
    return p.get(0)


def _extends(basis, v):
    """Whether the sparse vector v ({index: coefficient}) is outside the
    span of basis, a list of (pivot, vector) with each vector 1 at its own
    pivot and 0 at the pivots before it; if so, v is reduced and appended.
    Exact Gaussian elimination on kernel coefficients."""
    v = dict(v)
    for piv, row in basis:
        c = v.get(piv)
        if c is None:
            continue
        for k, x in row.items():
            y = K.c_sub(v.get(k, K.C_ZERO), K.c_mul(c, x))
            if y == K.C_ZERO:
                v.pop(k, None)
            else:
                v[k] = y
    if not v:
        return False
    piv = min(v)
    inv = K.c_inv(v[piv])
    basis.append((piv, {k: K.c_mul(x, inv) for k, x in v.items()}))
    return True


def _complex_frame(base, J):
    """The frame indices R, in increasing order, whose pairs r < s within
    R[:h] and within R[h:], h = floor(|R|/2), decide a C-infinity-bilinear,
    skew N_J, from J's numerators over m^1 (``_pair_plan``).

    At the point p of ``_base_point`` (m(p) != 0), e_b is kept iff it lies
    outside the span of the kept e_r and their images J(p) e_r.  Kept or
    not, every e_b ends in that span, so e_R and J(p) e_R span the fiber.
    For a real J(p) they are a basis and R has half the frame elements: a
    J(p)-invariant span that misses e_b and holds J(p) e_b - c e_b would
    hold (1 + c^2) e_b, c real.  A complex J(p) may keep more.  Some of the
    e_R and J e_R form a basis at p; their determinant is a rational
    function, nonzero at p, so nonzero on an open dense set U, where e_R
    and J e_R span the fiber.

    Why the pairs within the two halves decide N_J.  N_J is
    C-infinity-bilinear and skew by ``_tensoriality``, and J is orthogonal
    with J^2 = -Id.  Let L and L' be the +i and -i eigenbundles of J in the
    complexified bundle, and l_r = e_r - i J e_r, l'_r = e_r + i J e_r.

    - L is isotropic (<A,B> = <JA,JB> = -<A,B> on L), and so is L'; each
      has rank n, they pair nondegenerately, and (1 + iJ)/2 is the
      projection pi_L' onto L' along L.  On U the l_R span L and the l'_R
      span L', since (1 - iJ) J e_r = i (1 - iJ) e_r; this holds for a
      complex J(p) too, where R keeps more than n elements.
    - The involutivity tensor T_L(A, B, C) = <[A, B], C> on sections of L
      is C-infinity-linear and totally skew (Gualtieri, arXiv:math/0401221;
      Liu-Weinstein-Xu, arXiv:dg-ga/9508013): [fA, B] = f[A,B]
      - (rho(B)f)A + 2<A,B>Df and [A, gB] = g[A,B] + (rho(A)g)B leave only
      terms that pair to zero on L; [A,B] + [B,A] = 2D<A,B> = 0 makes it
      skew in A, B; rho(A)<B,C> = <[A,B],C> + <B,[A,C]> = 0 makes it skew
      in B, C.  Both identities hold for the H-twisted bracket with any H;
      no Jacobi identity is used.  The same holds for L'.
    - As plain algebra, with J^2 = -Id,
      (1 + iJ)[l_r, l_s] = -(1 + iJ) N_J(e_r, e_s), and
      (1 - iJ)[l'_r, l'_s] = -(1 - iJ) N_J(e_r, e_s).  So N_J(e_r, e_s) = 0
      gives pi_L'[l_r, l_s] = 0, i.e. T_L(l_r, l_s, .) = 0, and likewise
      T_L'(l'_r, l'_s, .) = 0; by skewness also for the pair (s, r).
    - Any three indices of R have two in the same half (pigeonhole), so by
      total skewness T_L and T_L' vanish on every triple of the l_R and of
      the l'_R, and so on U, where these span L and L'.  L and L' are then
      involutive there.
    - N_J(A, B') = 0 for A in L, B' in L' by algebra alone, and
      N_J(A, B) = -4 pi_L'[A, B] on L x L, -4 pi_L[A, B] on L' x L'; so
      N_J vanishes on U, and its numerators, polynomials, vanish
      everywhere.  The converse is trivial.

    Two parts is the least this argument can use: the pairs must meet
    every triple of the r = |R| indices, and by Turan's theorem such a set
    of pairs has at least C(r, 2) - floor(r^2/4) of them, which the two
    halves attain (12 of the 28 pairs within an 8-element R).  The pairs
    decide the identity, not the value at every point: off U they may
    vanish while N_J does not, so a pointwise check keeps every pair
    a < b."""
    point = _base_point(base)
    basis, keep = [], []
    for b in range(len(J)):
        if _extends(basis, {b: K.C_ONE}):
            keep.append(b)
            col = {c: _value(row[b], point) for c, row in enumerate(J)
                   if row[b]}
            _extends(basis, {c: x for c, x in col.items() if x is not None})
    return keep


def generator_degree(degree_bound):
    """Monomial degree of the generators a check runs over: the integer
    degree bound of a sweep, or 1 for the symbol certificate (None)."""
    if degree_bound is None:
        return 1
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    return degree_bound


def _residuals(tensor: BoundTensor, degree_bound: int | None,
               pointwise: bool = False):
    """The pairs every Nijenhuis-type check shares: (base, degree, pairs),
    where pairs yields (i, j, P) for ordered pairs of generators in the order
    of generator_labels(chart, degree), P the numerators of the tensor over
    m^3.  A sweep takes the generators of monomial degree <= degree_bound
    and yields every pair.  The symbol certificate (degree_bound None) asks
    _tensoriality what the structures prove: when the tensor is
    C-infinity-bilinear and skew it takes the frame generators (degree 0)
    and yields the pairs a < b, for N_J only those within the two halves
    of the J-complex frame of _complex_frame unless the pairs must decide
    the tensor at every point (pointwise); otherwise it takes degree 1 and
    yields (e_a, e_b) and (x_k e_a, e_b), which read N0 and P_k, and also
    (e_a, x_k e_b), which read Q_k, unless Q_k = 0 is proven."""
    return _setup_residuals(tensor.kind, tensor.chart, _kernel_setup(tensor),
                            degree_bound, pointwise)


def _setup_residuals(kind, chart, setup, degree_bound, pointwise=False):
    """``_residuals`` of the tensor of this kind whose ``_kernel_setup`` (or
    ``_numerator_setup``) is setup, over chart."""
    mats, kflux, structs, square = setup
    proven = (None if degree_bound is not None else
              _tensoriality(kind, mats["base"], structs, square))
    frame = (_complex_frame(mats["base"], structs[0].rows)
             if proven == "skew" and kind == "nijenhuis" and not pointwise
             else None)
    return _pairs(kind, chart, [(mats, kflux)], degree_bound, proven, frame)


def _commuting_residuals(tensor: BoundTensor, degree_bound: int | None,
                         partner: BoundTensor | None = None):
    """(identity, base, degree, pairs) for a concomitant N(I, J) of
    commuting I and J, in the layout of ``_residuals``, with identity from
    ``_commuting_symbol``.  For "difference" the pairs yield
    N(partner) - N(I, J), otherwise N(I, J), over the LCM base of the
    tensor and the partner; for "anomaly_matched" the caller subtracts the
    closed form.  The certificate (degree_bound None) takes the frame pairs
    a < b when the gate proves the residual skew; else (e_a, e_b) and
    (x_k e_a, e_b) for the closed-form residual, whose Q_k = 0, and N's own
    pairs (``_tensoriality``) for N itself.  A sweep takes every pair."""
    chart = tensor.chart
    if partner is None:
        setups = [_kernel_setup(tensor)]
    else:
        both = _family_base(partner, tensor)
        setups = [_kernel_setup(partner, both), _kernel_setup(tensor, both)]
    mats, _, structs, square = setups[-1]
    base = mats["base"]
    identity, skew = _commuting_symbol(
        setups[-1], setups[0] if partner is not None else None)
    if identity != "difference":
        setups = setups[-1:]
    proven = None
    if degree_bound is None:
        proven = ("skew" if skew else "second_slot"
                  if identity == "anomaly_matched" else
                  _tensoriality(tensor.kind, base, structs, square))
    return (identity,) + _pairs(tensor.kind, chart,
                                [s[:2] for s in setups], degree_bound,
                                proven)


def _pair_plan(chart, degree_bound, proven, frame=None):
    """(degree, gens, todo): the kernel generators of monomial degree 0
    when proven is "skew", else of generator_degree(degree_bound), in the
    order of generator_labels(chart, degree), and the pairs (i, j) of them
    that the proof leaves, in that order.  A sweep (integer degree_bound)
    keeps every pair.  For a skew tensor the certificate keeps the frame
    pairs a < b, or, given the J-complex frame R of a skew N_J (frame, from
    ``_complex_frame``, with the proof), the pairs r < s within R[:h] and
    within R[h:], h = floor(|R|/2).  Otherwise it keeps (e_a, e_b) and
    (x_k e_a, e_b), which read N0 and P_k, and (e_a, x_k e_b), which read
    Q_k, unless proven is "second_slot" (Q_k = 0).  The pairs of total
    degree <= 1 decide a tensor whose Leibniz rules are first order with
    no df.dg term (the module docstring); ``tduality.check_intertwine``
    reads its pairs here too."""
    degree = 0 if proven == "skew" else generator_degree(degree_bound)
    gens = _kernel_generators(chart, degree)
    every = range(len(gens))
    if proven == "skew":
        if frame is None:
            parts = (every,)
        else:   # the J-complex frame R of N_J, split in its index order
            h = len(frame) // 2
            parts = (frame[:h], frame[h:])
        todo = [(i, j) for part in parts for i in part for j in part if i < j]
    else:
        # a generator's monomial is linear iff it is not the constant one
        linear = [degree_bound is None and any(m != 0 for p in A for m in p)
                  for A in gens]
        todo = [(i, j) for i in every for j in every
                if not linear[j] or not (proven or linear[i])]
    return degree, gens, todo


def _pairs(kind, chart, setups, degree_bound, proven, frame=None):
    """(base, degree, pairs) for ``_residuals``, over the generators and
    pairs of ``_pair_plan``.  setups holds (mats, kflux) of one tensor, or
    of two over one base whose numerators are subtracted, the second from
    the first.  A generator's structure images and Jacobians are built
    once, when a pair first reads it, and kept with the structure's record
    (``_Structure.image``) and the base (the generator's own), so every
    family over that base reads them again; a pair only brackets them and
    applies structures to the brackets (``_eval_kernel``).  With each
    generator's operands is kept whether every one of their Jacobian
    entries is None.  When that holds for both generators of a pair and
    there is no flux, every bracket is zero, so the tensor is: such a pair
    -- a pair of constant frame sections over the unit base -- costs only
    that test."""
    degree, gens, todo = _pair_plan(chart, degree_bound, proven, frame)
    n = chart.dim
    ops = [{} for _ in setups]

    def value(i, j):
        out = None
        for (mats, kflux), cache in zip(setups, ops):
            for k in (i, j):
                if k not in cache:
                    op = _operand(kind, mats, gens[k], (degree, k))
                    cache[k] = op, not any(any(P[1]) for P in op)
            (A, flat), (B, flat_b) = cache[i], cache[j]
            P = ([{} for _ in range(2 * n)] if flat and flat_b and not kflux
                 else _eval_kernel(kind, mats, kflux, n, A, B))
            out = P if out is None else K.sec_sub(out, P)
        return out

    def pairs():
        for i, j in todo:
            yield i, j, value(i, j)
    return setups[0][0]["base"], degree, pairs()


def _tensor_report(name, degree_bound, base, degree, pairs, max_witnesses,
                   identity="vanishes", power=3):
    """Collect (i, j, numerators over m^power) into a TensorReport: vanished
    iff every numerator is zero, with the first max_witnesses nonzero pairs,
    labelled from the generators of monomial degree <= degree of
    ``_pair_plan`` (the labels are built at the first witness)."""
    labels = None
    report = TensorReport(name, True, degree_bound, 0, method=(
        "symbol_certificate" if degree_bound is None else "sweep"),
        identity=identity)
    for i, j, out in pairs:
        report.sample_count += 1
        if not K.sec_is_zero(out):
            report.vanished = False
            if labels is None:
                labels = generator_labels(base.chart, degree)
            report.witnesses.append(
                (labels[i], labels[j], str(base.section(out, power))))
            if len(report.witnesses) >= max_witnesses:
                break
    return report


def vanishes(tensor: BoundTensor, degree_bound: int | None = None,
             max_witnesses: int = 10) -> TensorReport:
    """Decide whether the bound tensor vanishes.

    With degree_bound None (the default) this is the symbol certificate, and
    vanished=True means the tensor vanishes for all smooth sections (see the
    module docstring).  When the structures prove the tensor
    C-infinity-bilinear and skew -- N_J with J^2 = -Id and J skew-adjoint,
    or N(I,J) with I, J skew-adjoint and IJ + JI a constant multiple of Id
    -- it is evaluated on the frame pairs (e_a, e_b) with a < b:
    2n(2n - 1)/2 pairs (28 at n = 4).  For N_J only the pairs within the
    two halves of a J-complex frame R are evaluated (_complex_frame, with
    the proof): R is the frame elements e_R that, with their images J e_R,
    span the fiber at one point, n of them when J is real there, and the
    pairs r < s within R[:h] and within R[h:], h = floor(|R|/2), are
    C(h, 2) + C(n - h, 2) of them for a real J (2 at n = 4, for any
    B-transform of a constant hyperkaehler structure on R^4 too).
    Otherwise it is evaluated on the pairs (e_a, e_b), (x_k e_a, e_b) and
    (e_a, x_k e_b);
    the last only read Q_k and are skipped when Q_k = 0 is proven (always for a concomitant,
    for N_J or N_G when J^2 = -Id or G^2 = Id holds exactly).  That is
    2n * 2n * (1 + n) pairs (320), against 2n * 2n * (1 + 2n) (576).  With
    an integer degree_bound it is evaluated on all pairs (m*e_a, m'*e_b) of
    frame sections times monomials of degree <= degree_bound.

    vanished is True iff every output is exactly zero; otherwise the first
    max_witnesses witnesses (in the fixed generator order) are reported.
    """
    base, degree, pairs = _residuals(tensor, degree_bound)
    return _tensor_report(tensor.name, degree_bound, base, degree, pairs,
                          max_witnesses)


# ---------------------------------------------------------------------------
# Constructors and lemma identities.

def generalized_metric(g, b, chart: Chart | None = None) -> EndField:
    """Generalized metric block matrix from (g, b):
    [[-g^-1 b, g^-1], [g - b g^-1 b, b g^-1]].

    g must be symmetric and exactly invertible, b antisymmetric.
    """
    if chart is None:
        chart = g[0][0].chart
    n = chart.dim
    if len(g) != n or len(b) != n:
        raise ValueError("g and b must be n x n")
    for i in range(n):
        for j in range(n):
            if g[i][j] != g[j][i]:
                raise ValueError("g must be symmetric")
            if b[i][j] != -b[j][i]:
                raise ValueError("b must be antisymmetric")
    ginv = mat_inv(g, chart)
    bginv = mat_mul(b, ginv)
    ginvb = mat_mul(ginv, b)
    gminus = [[a - c for a, c in zip(r1, r2)]
              for r1, r2 in zip(g, mat_mul(bginv, b))]
    G = EndField.from_blocks(chart,
                             [[-x for x in row] for row in ginvb],
                             ginv, gminus, bginv)
    if not is_almost_real(G):
        raise AssertionError("generalized metric failed its structural checks")
    return G


def form_to_matrix(B: KForm):
    """Antisymmetric coefficient matrix B_ij of a 2-form."""
    if B.degree != 2:
        raise ValueError("need a 2-form")
    chart = B.chart
    n = chart.dim
    zero = ScalarField.zero(chart)
    M = [[zero] * n for _ in range(n)]
    for (i, j), f in B.coeffs.items():
        M[i][j] = f
        M[j][i] = -f
    return M


def bfield_transform(E: EndField, B: KForm) -> EndField:
    """e^B E e^-B with e^B = [[Id, 0], [Bm, Id]]; flux gains dB.

    (e^B acts by (X, xi) -> (X, xi + iota_X B); the transform preserves
    orthogonality, squares and all Clifford relations, and is integrable for
    the (flux + dB)-twisted bracket whenever E was for the flux-twisted one.)
    """
    from .cartan import exterior_d
    chart = E.chart
    n = chart.dim
    Bm = form_to_matrix(B)
    # Bmat[j][i] = B_{ij}: row j of the lower-left block
    lower = [[Bm[i][j] for i in range(n)] for j in range(n)]
    zero = [[ScalarField.zero(chart)] * n for _ in range(n)]
    ident = [[ScalarField.one(chart) if i == j else ScalarField.zero(chart)
              for j in range(n)] for i in range(n)]
    eB = EndField.from_blocks(chart, ident, zero, lower, ident)
    eBinv = EndField.from_blocks(chart, ident, zero,
                                 [[-x for x in row] for row in lower], ident)
    out = eB @ E @ eBinv
    dB = exterior_d(B)
    base = E.flux.H if E.flux is not None else KForm.zero(chart, 3)
    newflux = FluxForm(base + dB)
    return EndField(chart, out.entries, newflux)


def eigen_sections(G: EndField, sign: int):
    """{e_a + sign * G e_a} over the frame; each output satisfies
    G(out) = sign * out."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not _is_involution(G):
        raise ValueError("structure is not an involution (G^2 != Id)")
    out = []
    for e in frame_sections(G.chart):
        ge = G.apply(e)
        s = e + ge if sign == 1 else e - ge
        check = G.apply(s)
        want = s if sign == 1 else -s
        if check != want:
            raise AssertionError("eigen section failed its eigenvalue check")
        out.append(s)
    return out


def lemma_identities(I: EndField, J: EndField, A: Section, B: Section):
    """Both sides of the product/mixed Nijenhuis identities for an
    anticommuting pair (I almost complex, I J = -J I).

    Returns [(name, lhs, rhs, equal)] for the three identities:
      product rule for N_{IJ}, the mixed expression for N(I,J), and the
      N(I, IJ) expansion.
    """
    chart = I.chart
    minus_id = EndField.identity(chart).scale(ScalarField.constant(chart, -1))
    if not (I @ I).entries_equal(minus_id):
        raise ValueError("I^2 = -Id required")
    if not ((I @ J) + (J @ I)).is_zero:
        raise ValueError("I J + J I = 0 required")
    flux = _common_flux(I, J)
    IJ = I @ J
    half = ScalarField.constant(chart, Fraction(1, 2))
    two = ScalarField.constant(chart, 2)

    def N(S, X, Y):
        return nijenhuis(S, X, Y, flux)

    IA, IB = I.apply(A), I.apply(B)
    JA, JB = J.apply(A), J.apply(B)
    out = []

    lhs1 = N(IJ, A, B)
    rhs1 = (N(I, JA, JB) + N(J, IA, IB) + N(I, A, B) + N(J, A, B)
            - I.apply(N(J, IA, B)) - I.apply(N(J, A, IB))
            - J.apply(N(I, JA, B)) - J.apply(N(I, A, JB))).scale(half)
    out.append(("lemma_2_1_product", lhs1, rhs1, lhs1 == rhs1))

    lhs2 = concomitant(I, J, A, B, flux)
    rhs2 = (IJ.apply(N(I, A, B) - N(J, A, B)) - N(IJ, JA, IB)).scale(half)
    out.append(("lemma_2_1_mixed", lhs2, rhs2, lhs2 == rhs2))

    lhs3 = concomitant(I, IJ, A, B, flux).scale(two)
    rhs3 = (N(I, JA, B) + N(I, A, JB)
            + I.apply(concomitant(I, J, A, B, flux)).scale(two))
    out.append(("n_i_ij_expansion", lhs3, rhs3, lhs3 == rhs3))
    return out
