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
n = 4).  For N_J, N_J(A, JB) = -J N_J(A, B) drops every frame element e_b
with J e_b = +-e_c, c < b, as well (66 pairs for the twistor structure
instead of 120).  N_G never is: its first slot keeps
4<A,B>Df - 4<A,GB> G Df.  An integer degree bound instead sweeps all pairs
of frame sections times monomials up to that degree, as an opt-in
cross-check.

Every check -- ``vanishes``, the commuting-family check of Theorem 1.1 and
the twistor certificate of Theorem 1.3 -- runs the one kernel evaluator
``_eval_kernel`` over a fixed-denominator base (``_PowerDen``): sections are
numerators over powers of one polynomial m, the LCM of the denominators of
the structures and the flux, and m = 1 for polynomial input.  The
ScalarField formulas ``nijenhuis``, ``concomitant`` and ``real_nijenhuis``
are the independent reference the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from ._core import kernel as K
from . import polygcd as G
from .scalar import Chart, ChartMismatchError, Poly, ScalarField
from .cartan import KForm
from .courant import (FluxForm, Section, dorfman_twisted,
                      frame_sections, monomials_up_to, section_from_kernel,
                      section_kernel_components)

HALF = (1, 0, 2)


class FluxMismatchError(ValueError):
    pass


def mat_mul(A, B):
    """Product of two square ScalarField matrices.

    When every entry of both operands is a polynomial (denominator one) the
    product runs on the kernel's term dicts; otherwise each entry goes
    through ScalarField arithmetic, whose GCD normalization rational entries
    need.
    """
    if _is_polynomial_matrix(A) and _is_polynomial_matrix(B):
        return _mat_mul_kernel(A, B)
    size = len(A)
    zero = ScalarField.zero(A[0][0].chart)
    out = []
    for i in range(size):
        row = []
        Ai = A[i]
        for j in range(size):
            acc = None
            for k in range(size):
                a = Ai[k]
                if a.is_zero:
                    continue
                b = B[k][j]
                if b.is_zero:
                    continue
                t = a * b
                acc = t if acc is None else acc + t
            row.append(acc if acc is not None else zero)
        out.append(row)
    return out


def _is_polynomial_matrix(M):
    return all(f.is_polynomial for row in M for f in row)


def _mat_mul_kernel(A, B):
    """mat_mul for polynomial operands: the numerators multiplied by
    _mat_mul_terms, each result entry wrapped once."""
    prod = _mat_mul_terms([[f.num.terms for f in row] for row in A],
                          [[f.num.terms for f in row] for row in B])
    return _wrap_terms(A[0][0].chart, prod)


def _wrap_terms(chart, rows):
    """The polynomial ScalarField matrix of a matrix of kernel term dicts."""
    zero = ScalarField.zero(chart)
    one = zero.den
    return [[ScalarField._unchecked(Poly(chart, p), one) if p else zero
             for p in row] for row in rows]


def _entrywise_terms(op, A, B):
    """op (K.p_add or K.p_sub) on the numerators of two polynomial
    ScalarField matrices, entry by entry."""
    return [[op(a.num.terms, b.num.terms) for a, b in zip(r1, r2)]
            for r1, r2 in zip(A, B)]


def _mat_mul_terms(A, B):
    """Product of square matrices of kernel term dicts ({} for zero), each
    entry one K.p_dot over the nonzero entries of A's row."""
    size = len(B)
    out = []
    for Ai in A:
        nonzero = [(k, a) for k, a in enumerate(Ai) if a]
        out.append([K.p_dot((a, B[k][j]) for k, a in nonzero)
                    for j in range(size)])
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

    def _from_terms(self, rows):
        """An EndField with self's chart and flux and the polynomial entries
        given as kernel term dicts."""
        return EndField(self.chart, _wrap_terms(self.chart, rows), self.flux)

    # +, - and scaling by a constant run on the kernel's term dicts when
    # every entry is a polynomial, as mat_mul does, and through ScalarField
    # arithmetic (which normalizes rational entries) otherwise.

    def __add__(self, other):
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            return self._from_terms(
                _entrywise_terms(K.p_add, self.entries, other.entries))
        return EndField(self.chart,
                        [[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.entries, other.entries)],
                        self.flux)

    def __sub__(self, other):
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            return self._from_terms(
                _entrywise_terms(K.p_sub, self.entries, other.entries))
        return EndField(self.chart,
                        [[a - b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.entries, other.entries)],
                        self.flux)

    def __neg__(self):
        return EndField(self.chart, [[-a for a in r] for r in self.entries],
                        self.flux)

    def scale(self, c):
        if c.is_constant and self.is_polynomial:
            k = c.num.terms.get(0, K.C_ZERO)
            return self._from_terms([[K.p_scale(a.num.terms, k) for a in r]
                                     for r in self.entries])
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
        comps = A.to_components()
        out = []
        for row in self.entries:
            acc = None
            for e, c in zip(row, comps):
                if e.is_zero or c.is_zero:
                    continue
                t = e * c
                acc = t if acc is None else acc + t
            out.append(acc if acc is not None else ScalarField.zero(self.chart))
        return Section.from_components(self.chart, out)

    def column(self, j) -> Section:
        return Section.from_components(self.chart,
                                       [row[j] for row in self.entries])

    @property
    def is_constant(self):
        return all(f.is_constant for row in self.entries for f in row)

    @property
    def is_polynomial(self):
        return _is_polynomial_matrix(self.entries)

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
    sq = G @ G
    return sq.entries_equal(EndField.identity(G.chart)) and is_orthogonal(G)


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
                   flux: FluxForm | None = None) -> BoundTensor:
    return BoundTensor("nijenhuis", name, (J,), _common_flux(J, override=flux))


def bind_concomitant(I: EndField, J: EndField, name: str = "N(I,J)",
                     flux: FluxForm | None = None) -> BoundTensor:
    return BoundTensor("concomitant", name, (I, J),
                       _common_flux(I, J, override=flux))


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
    generator pairs up to the integer degree_bound)."""

    name: str
    vanished: bool
    degree_bound: int | None
    sample_count: int
    witnesses: list = field(default_factory=list)
    method: str = "sweep"


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


def generator_sections(chart, degree_bound):
    """Sections m * e_a in the same order as generator_labels."""
    out = []
    monos = monomials_up_to(chart, degree_bound)
    for a in range(2 * chart.dim):
        e = Section.frame(chart, a)
        for m in monos:
            out.append(e.scale(ScalarField.from_poly(m)))
    return out


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

    @classmethod
    def lcm(cls, chart, fields):
        """The base over the LCM of the denominators of the ScalarFields;
        the unit base, with no GCD taken, when all of them are polynomial."""
        m = None
        for den in dict.fromkeys(f.den for f in fields if not f.is_polynomial):
            d = den.terms
            if m is None:
                m = d
            elif G.p_divexact(m, d) is None:
                m = K.p_mul(m, G.p_divexact(d, G.p_gcd(m, d)))
        return cls(chart, m)

    def mpow(self, k):
        if k not in self._pows:
            self._pows[k] = K.p_mul(self.mpow(k - 1), self.m)
        return self._pows[k]

    def diff(self, k):
        """The derivative (comp, t) -> numerator of d/dx_t (comp / m^k) over
        m^(k+1), i.e. m d_t comp - k comp d_t m; one closure per k."""
        if self.unit:
            return K.p_diff
        fn = self._diffs.get(k)
        if fn is None:
            m, dm, ck = self.m, self.dm, (k, 0, 1)

            def fn(comp, t):
                dc = K.p_diff(comp, t)
                out = K.p_mul(m, dc) if dc else {}
                if k and comp and dm[t]:
                    out = K.p_sub(out, K.p_scale(K.p_mul(comp, dm[t]), ck))
                return out
            self._diffs[k] = fn
        return fn

    def jacobian(self, P, k):
        """Jacobian of the section P / m^k: numerators over m^(k+1)."""
        return K.sec_jacobian(self.n, P, self.diff(k))

    def dorfman(self, P, j, Q, k):
        """Bracket of (P, j) and (Q, k): returns (R, j + k + 1)."""
        return (K.sec_dorfman(self.n, P, Q, None, self.jacobian(P, j),
                              self.jacobian(Q, k)), j + k + 1)

    def lift(self, P, j, target):
        if j == target or self.unit:
            return P
        f = self.mpow(target - j)
        return [K.p_mul(p, f) if p else {} for p in P]

    def numerator(self, f, k=1):
        """Numerator of the ScalarField f over m^k."""
        if self.unit or f.is_zero:
            return f.num.terms
        mult = G.p_divexact(self.mpow(k), f.den.terms)
        if mult is None:
            raise ValueError("denominator does not divide the base power")
        return K.p_mul(f.num.terms, mult)

    def numerators(self, E: EndField, k=1):
        """Dense rows of the numerators of E's entries over m^k."""
        return [[self.numerator(f, k) for f in row] for row in E.entries]

    def section(self, P, k):
        """The Section with numerators P over m^k."""
        if self.unit:
            return section_from_kernel(self.chart, P)
        den = Poly(self.chart, self.mpow(k))
        return Section.from_components(
            self.chart, [ScalarField(Poly(self.chart, p), den) for p in P])

    # --- dense matrices of numerators over a common power of m.

    def mat_lift(self, A, ka, target):
        if ka == target:
            return A
        f = self.mpow(target - ka)
        return [[K.p_mul(e, f) if e else {} for e in row] for row in A]

    def mat_sub(self, A, ka, B, kb):
        top = max(ka, kb)
        A = self.mat_lift(A, ka, top)
        B = self.mat_lift(B, kb, top)
        return [[K.p_sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(A, B)], top

    def mat_add(self, A, ka, B, kb):
        top = max(ka, kb)
        A = self.mat_lift(A, ka, top)
        B = self.mat_lift(B, kb, top)
        return [[K.p_add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(A, B)], top

    def mat_scale(self, A, c):
        return [[K.p_scale(e, c) if e else {} for e in row] for row in A]

    def mat_diff(self, A, ka, t):
        """Entrywise d/dx_t of A/m^ka, over m^(ka+1)."""
        d = self.diff(ka)
        return [[d(e, t) if e else {} for e in row] for row in A], ka + 1

    @staticmethod
    def mat_is_zero(A):
        return all(not e for row in A for e in row)

    def mat_commutator(self, A, ka, B, kb):
        return self.mat_sub(_mat_mul_terms(A, B), ka + kb,
                            _mat_mul_terms(B, A), ka + kb)


def _sparse_rows(M, const):
    """Kernel matrix layout of a dense matrix of term dicts: rows of
    (col, coefficient) pairs when const, else of (col, polynomial) pairs."""
    if const:
        return [[(j, next(iter(p.values()))) for j, p in enumerate(row) if p]
                for row in M]
    return [[(j, p) for j, p in enumerate(row) if p] for row in M]


def _kernel_setup(tensor: BoundTensor):
    """(mats, kflux, nums, square) for _eval_kernel and _tensoriality: the
    base, the structures as numerators over m^1 in kernel matrix layout
    (constant coefficients when the base is the unit and every structure is
    constant), the flux coefficients as numerators over m^1 (None for zero
    flux), the structures' dense numerator rows over m^1, and the dense
    numerators over m^2 of S S for one structure S, of I J + J I for a
    concomitant N(I, J)."""
    structs = tensor.structures
    flux = {} if tensor.flux is None else tensor.flux.H.coeffs
    base = _PowerDen.lcm(tensor.chart,
                         [f for s in structs for row in s.entries for f in row]
                         + list(flux.values()))
    const = base.unit and all(s.is_constant for s in structs)
    nums = [base.numerators(s) for s in structs]
    mats = {"base": base, "J": _sparse_rows(nums[-1], const),
            "app": K.mat_apply_const if const else K.mat_apply_poly}
    if tensor.kind == "concomitant":
        I, J = nums
        IJ, JI = _mat_mul_terms(I, J), _mat_mul_terms(J, I)
        mats["I"] = _sparse_rows(I, const)
        mats["IJ"] = _sparse_rows(IJ, const)
        mats["JI"] = _sparse_rows(JI, const)
        square = [[K.p_add(a, b) for a, b in zip(r1, r2)]
                  for r1, r2 in zip(IJ, JI)]
    else:
        square = _mat_mul_terms(nums[0], nums[0])
    kflux = {idx: base.numerator(f) for idx, f in flux.items()}
    return mats, kflux or None, nums, square


def _identity_multiple(M, m2):
    """The constant c with M = c m2 Id (M and m2 numerators over one power
    of the base), or None when M is not a constant multiple of m2 Id."""
    mono, lead = next(iter(m2.items()))
    c = K.c_mul(M[0][0].get(mono, K.C_ZERO), K.c_inv(lead))
    diag = K.p_scale(m2, c)
    if all(e == (diag if i == j else {})
           for i, row in enumerate(M) for j, e in enumerate(row)):
        return c
    return None


def _skew_adjoint(S):
    """<SA, B> + <A, SB> = 0 for the pairing <A, B> = A^T P B, P_ij = 1/2
    iff j = i + n mod 2n: S^T P + P S = 0, entrywise
    S[(i+n)%2n][j] + S[(j+n)%2n][i] = 0.  Exact on numerators."""
    size = len(S)
    n = size // 2
    return all(not K.p_add(S[(i + n) % size][j], S[(j + n) % size][i])
               for i in range(size) for j in range(i, size))


def _tensoriality(kind, base, nums, square):
    """What the structures prove about the tensor's Leibniz symbol, decided
    exactly on their numerators over m^1 (square over m^2, from
    _kernel_setup): "skew" when the tensor is C-infinity-bilinear and skew,
    "second_slot" when only Q_k = 0 is proven, None otherwise.

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
        return "skew" if _skew_adjoint(nums[0]) else "second_slot"
    if c is not None and all(_skew_adjoint(S) for S in nums):
        return "skew"
    return "second_slot"


def _operand(kind, mats, A):
    """Everything _eval_kernel needs of one generator A (numerators over
    m^0), built once per generator and not once per pair: (section,
    Jacobian) for A over m^0, then for J A and, for a concomitant, I A over
    m^1."""
    base, app = mats["base"], mats["app"]
    out = [(A, base.jacobian(A, 0))]
    for s in ("J", "I") if kind == "concomitant" else ("J",):
        SA = app(mats[s], A)
        out.append((SA, base.jacobian(SA, 1)))
    return out


def _eval_kernel(kind, mats, kflux, n, A, B):
    """Numerators over m^3 of the tensor on two generators, given as their
    ``_operand``s; the structures and the flux are numerators over m^1.

    A bracket of P / m^j and Q / m^k is the numerator over m^(j+k+1), and
    applying a structure adds 1 to the exponent.  So every term lands on
    m^3, except [A, B] of N_J and N_G, which is lifted from m^1 by m^2.
    """
    app = mats["app"]

    def dor(P, Q):
        return K.sec_dorfman(n, P[0], Q[0], kflux, P[1], Q[1])
    if kind != "concomitant":
        # N_J ends in - [A,B]; the real N_G ends in + [A,B]
        last = K.p_sub if kind == "nijenhuis" else K.p_add
        J = mats["J"]
        (a, ja), (b, jb) = A, B
        t1 = dor(ja, jb)
        t2 = app(J, dor(ja, b))
        t3 = app(J, dor(a, jb))
        t4 = mats["base"].lift(dor(a, b), 1, 3)
        return [last(K.p_sub(K.p_sub(x, y), z), w)
                for x, y, z, w in zip(t1, t2, t3, t4)]
    I, J = mats["I"], mats["J"]
    IJ, JI = mats["IJ"], mats["JI"]
    (a, ja, ia), (b, jb, ib) = A, B
    t1 = K.sec_add(dor(ia, jb), dor(ja, ib))
    t2 = app(I, K.sec_add(dor(a, jb), dor(ja, b)))
    t3 = app(J, K.sec_add(dor(a, ib), dor(ia, b)))
    ab = dor(a, b)
    t4 = K.sec_add(app(IJ, ab), app(JI, ab))
    out = K.sec_add(K.sec_sub(K.sec_sub(t1, t2), t3), t4)
    return [K.p_scale(p, HALF) for p in out]


def _frame_representatives(base, J):
    """The frame indices the J-orbit reduction keeps, from J's numerators
    over m^1: b is dropped iff column b is exactly +-m e_c for some c < b,
    i.e. J e_b = +-e_c.

    For any bilinear bracket and J^2 = -Id, as plain algebra,

        N_J(A, JB) = -J N_J(A, B) = N_J(JA, B)

    (expand both sides: each is -[JA,B] - [A,JB] - J[JA,JB] + J[A,B]).  If
    J e_b = +-e_c then e_b = -+J e_c, so N_J(e_a, e_b) = +-J N_J(e_a, e_c)
    and N_J(e_b, e_a) = +-J N_J(e_c, e_a); J is invertible, so the pairs
    with e_b vanish, identically or at a point, iff those with e_c do.  The
    partner c is kept: column c is -+m e_b with b > c.  So when N_J is
    C-infinity-bilinear and skew, the frame pairs r < r' within the kept
    set decide it (a pair (e_c, e_b) of one orbit is +-J N_J(e_c, e_c) = 0).
    """
    m, neg = base.m, K.p_neg(base.m)
    size = len(J)
    keep = []
    for b in range(size):
        col = [(c, J[c][b]) for c in range(size) if J[c][b]]
        if not (len(col) == 1 and col[0][0] < b and col[0][1] in (m, neg)):
            keep.append(b)
    return keep


def generator_degree(degree_bound):
    """Monomial degree of the generators a check runs over: the integer
    degree bound of a sweep, or 1 for the symbol certificate (None)."""
    if degree_bound is None:
        return 1
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    return degree_bound


def _residuals(tensor: BoundTensor, degree_bound: int | None):
    """The pairs every Nijenhuis-type check shares: (base, degree, pairs),
    where pairs yields (i, j, P) for ordered pairs of generators in the order
    of generator_labels(chart, degree), P the numerators of the tensor over
    m^3.  A sweep takes the generators of monomial degree <= degree_bound
    and yields every pair.  The symbol certificate (degree_bound None) asks
    _tensoriality what the structures prove: when the tensor is
    C-infinity-bilinear and skew it takes the frame generators (degree 0)
    and yields the pairs a < b, for N_J only those within the J-orbit
    representatives of _frame_representatives; otherwise it takes degree 1
    and yields
    (e_a, e_b) and (x_k e_a, e_b), which read N0 and P_k, and also
    (e_a, x_k e_b), which read Q_k, unless Q_k = 0 is proven.  Each
    generator's structure images and Jacobians are built once, up front, so
    a pair only brackets them and applies structures to the brackets."""
    mats, kflux, nums, square = _kernel_setup(tensor)
    kind = tensor.kind
    proven = (None if degree_bound is not None else
              _tensoriality(kind, mats["base"], nums, square))
    degree = 0 if proven == "skew" else generator_degree(degree_bound)
    gens = _kernel_generators(tensor.chart, degree)
    n = tensor.chart.dim
    ops = [_operand(kind, mats, A) for A in gens]
    # a generator's monomial is linear iff it is not the constant monomial
    linear = [degree_bound is None and any(m != 0 for p in A for m in p)
              for A in gens]
    reps = set(range(len(gens)))
    if proven == "skew" and kind == "nijenhuis":
        reps = set(_frame_representatives(mats["base"], nums[0]))

    # a sweep keeps every pair; a skew certificate the frame pairs a < b
    # (within the J-orbit representatives for N_J); otherwise the
    # certificate keeps (e_a, e_b) and (x_k e_a, e_b), and (e_a, x_k e_b)
    # too unless Q_k = 0 is proven
    def keep(i, j):
        if proven == "skew":
            return i < j and i in reps and j in reps
        return not linear[j] or not (proven or linear[i])

    def pairs():
        for i, A in enumerate(ops):
            for j, B in enumerate(ops):
                if keep(i, j):
                    yield i, j, _eval_kernel(kind, mats, kflux, n, A, B)
    return mats["base"], degree, pairs()


def _tensor_report(name, degree_bound, base, degree, pairs, max_witnesses):
    """Collect (i, j, numerators over m^3) into a TensorReport: vanished iff
    every numerator is zero, with the first max_witnesses nonzero pairs,
    labelled from the generators of monomial degree <= degree that
    _residuals evaluated."""
    labels = generator_labels(base.chart, degree)
    report = TensorReport(name, True, degree_bound, 0, method=(
        "symbol_certificate" if degree_bound is None else "sweep"))
    for i, j, out in pairs:
        report.sample_count += 1
        if not K.sec_is_zero(out):
            report.vanished = False
            report.witnesses.append(
                (labels[i], labels[j], str(base.section(out, 3))))
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
    2n(2n - 1)/2 pairs (28 at n = 4).  For N_J the frame elements with
    J e_b = +-e_c, c < b, are dropped as well (_frame_representatives):
    r(r - 1)/2 pairs for r kept frame elements (6 for a constant
    hyperkaehler structure on R^4, whose columns are all +-frame elements).
    Otherwise it is evaluated on the
    pairs (e_a, e_b), (x_k e_a, e_b) and (e_a, x_k e_b); the last only read
    Q_k and are skipped when Q_k = 0 is proven (always for a concomitant,
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


def kernel_evaluate(tensor: BoundTensor, A: Section, B: Section) -> Section:
    """tensor(A, B) by the kernel evaluator ``_eval_kernel`` when the
    structures, the flux and the sections are polynomial; by the ScalarField
    reference ``BoundTensor.evaluate`` otherwise, where normalizing the
    kernel's numerators over a rational base costs more than the reference
    formula."""
    if A.chart != tensor.chart or B.chart != tensor.chart:
        raise ChartMismatchError("sections on wrong chart")
    P, Q = section_kernel_components(A), section_kernel_components(B)
    mats, kflux, _, _ = _kernel_setup(tensor)
    if P is None or Q is None or not mats["base"].unit:
        return tensor.evaluate(A, B)
    kind = tensor.kind
    out = _eval_kernel(kind, mats, kflux, tensor.chart.dim,
                       _operand(kind, mats, P), _operand(kind, mats, Q))
    return mats["base"].section(out, 3)


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


def tensoriality_probe(tensor: BoundTensor, f: ScalarField, A: Section,
                       B: Section) -> Section:
    """Defect N(fA, B) - f N(A, B); zero iff the binding is tensorial in its
    first slot at (A, B).  Reported, not asserted, for mixed concomitants."""
    return tensor.evaluate(A.scale(f), B) - tensor.evaluate(A, B).scale(f)
