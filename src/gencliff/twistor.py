"""The Spin(3) rotation family over S^2 x S^2 and the twistor-space
structure: stereographic vectors and rotation matrices (one symbolic formula
over the 4-coordinate sphere chart, proven in SO(3) as an identity and
evaluated exactly at Gaussian rational points), the rotated triples
K_i(zeta1, zeta2) with Theorem 1.2 decided for every (zeta1, zeta2) on the
six sector generators, the connection form and its flatness, and the block
twistor structure on the product chart with its integrability certificate.

All sphere dependence enters through denominators dividing powers of
(1+u1^2+v1^2)(1+u2^2+v2^2).  The six sector generators I_l^+- are
constant 2n x 2n matrices, so Ihat = c.I+ + d.I- is built as numerator
matrices over m = L (1+u1^2+v1^2)(1+u2^2+v2^2) (``gcs._PowerDen``), the
integer L clearing the generators' coefficients so that every numerator
is integral, on any chart whose last four coordinates are the sphere
coordinates, for every dimension n of the triple's chart.
The connection identities and the flatness of the (0,1) connection are
decided on the unit vectors c, d, the forms omega1 = c x dc and
omega2 = d x dd and the sector algebra that ``project`` verifies, with no
matrix built (see ``ConnectionData``).  The integrability check of
Theorem 1.3 runs the Nijenhuis evaluator of ``gcs`` on the twistor
structure's numerators over the same m, as ``_ihat`` builds them (no
ScalarField round trip); that structure is orthogonal and squares to -Id,
so its Nijenhuis tensor is decided on the frame pairs within the two halves
of a J-complex frame: 2 C((n + 4)/2, 2) pairs for even n, of the
(2n + 8)(2n + 7)/2 frame pairs a < b of the (n + 4)-coordinate product
chart (12 of 120 at n = 4, 30 of 276 at n = 8).

Only the finite stereographic chart of each sphere is implemented; zeta =
infinity is outside every formula here (the point-wise oracle uses rational
points, so it never comes up).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from ._core import kernel as K
from .scalar import Chart, GaussianRational, Poly, ScalarField
from .cartan import KForm
from .gcs import (BoundTensor, EndField, _PowerDen, _Structure, _den_lcm,
                  _residuals, generator_labels, is_almost_gcs, vanishes)
from .clifford import (CliffordTriple, SuiteReport, TripleStatus, _store,
                       check_relations, induce, levi_civita, project)


@dataclass(frozen=True)
class TwistorPoint:
    zeta1: GaussianRational
    zeta2: GaussianRational


def _gauss(v):
    if isinstance(v, GaussianRational):
        return v
    return GaussianRational(v)


def stereo_vec(zeta):
    """Unit vector c(zeta) = (1-|z|^2, i(zbar-z), -(z+zbar)) / (1+|z|^2);
    exactly rational and exactly of unit norm."""
    z = _gauss(zeta)
    p, q = z.re, z.im
    r2 = p * p + q * q
    den = 1 + r2
    c = (Fraction(1 - r2, 1) / den, Fraction(2, 1) * q / den,
         Fraction(-2, 1) * p / den)
    assert sum(x * x for x in c) == 1
    return c


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


class RotationMatrix:
    """Exact 3x3 special orthogonal matrix with the row cross-product
    identities tau_1 = tau_2 x tau_3 (and cyclic) verified on construction."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 matrix")
        for i in range(3):
            for j in range(3):
                dot = sum(rows[i][k] * rows[j][k] for k in range(3))
                if dot != (1 if i == j else 0):
                    raise ValueError("matrix is not orthogonal")
        det = sum(rows[0][i] * rows[1][(i + 1) % 3] * rows[2][(i + 2) % 3]
                  - rows[0][i] * rows[1][(i + 2) % 3] * rows[2][(i + 1) % 3]
                  for i in range(3)) / 1
        if det != 1:
            raise ValueError("determinant is not 1")
        t1, t2, t3 = rows
        if _cross(t2, t3) != t1 or _cross(t3, t1) != t2 or _cross(t1, t2) != t3:
            raise ValueError("row cross-product identities fail")
        self.rows = rows

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, RotationMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"RotationMatrix({self.rows})"


def rot_T(zeta) -> RotationMatrix:
    """The stereographic rotation matrix; first row equals stereo_vec(zeta).

    The symbolic ``rot_field`` over the sphere chart, evaluated at (Re zeta,
    Im zeta, 0, 0); in real coordinates zeta = p + q i its entries are
        [[1-p^2-q^2,   2q,      -2p    ],
         [-2q,         1+p^2-q^2, 2pq  ],
         [2p,          2pq,     1-p^2+q^2]] / (1+p^2+q^2),
    and each evaluated entry is verified to have exactly zero imaginary part.
    """
    z = _gauss(zeta)
    point = (z.re, z.im, 0, 0)
    values = [[f.evaluate(point) for f in row] for row in _unit_rot_field()]
    if not all(w.is_real for row in values for w in row):
        raise AssertionError("rotation entry has nonzero imaginary part")
    return RotationMatrix([[w.re for w in row] for row in values])


rot_S = rot_T   # the second sphere factor uses the identical formula


SPHERE_COORDS = ("u1", "v1", "u2", "v2")


def sphere_chart() -> Chart:
    """(u1, v1, u2, v2) with zeta_s = u_s + i v_s."""
    return Chart(SPHERE_COORDS)


def _zeta_fields(chart, iu, iv):
    u = ScalarField.variable(chart, iu)
    v = ScalarField.variable(chart, iv)
    i = ScalarField.constant(chart, GaussianRational(0, 1))
    return u + i * v, u - i * v


def stereo_field(chart, iu, iv):
    """c(zeta) as a 3-vector of ScalarFields, zeta = x_iu + i x_iv."""
    z, zb = _zeta_fields(chart, iu, iv)
    one = ScalarField.one(chart)
    i = ScalarField.constant(chart, GaussianRational(0, 1))
    den = one + z * zb
    return ((one - z * zb) / den, (i * (zb - z)) / den, -(z + zb) / den)


def rot_field(chart, iu, iv):
    """The rotation matrix as symbolic ScalarFields over the chart."""
    z, zb = _zeta_fields(chart, iu, iv)
    one = ScalarField.one(chart)
    i = ScalarField.constant(chart, GaussianRational(0, 1))
    half = ScalarField.constant(chart, Fraction(1, 2))
    den = one + z * zb
    rows = (
        (one - z * zb, -i * (z - zb), -(z + zb)),
        (i * (z - zb), one + (z * z + zb * zb) * half,
         -i * (z * z - zb * zb) * half),
        (z + zb, -i * (z * z - zb * zb) * half,
         one - (z * z + zb * zb) * half),
    )
    return tuple(tuple(e / den for e in row) for row in rows)


@cache
def _unit_rot_field():
    """rot_field on the sphere chart in (u1, v1): the one formula rot_T and
    rot_S evaluate."""
    return rot_field(sphere_chart(), 0, 1)


def rotation_field_failures() -> list:
    """The identities that make ``rot_field`` -- the formula rot_T and rot_S
    evaluate -- a real matrix in SO(3) at every point of the sphere chart,
    decided as exact rational-function identities; returns the names of
    those that fail.  Orthonormal rows and the row cross-product identities
    t_i = t_j x t_k (cyclic) give det = t_1 . (t_2 x t_3) = 1."""
    R = _unit_rot_field()
    S4 = sphere_chart()
    zero, one = ScalarField.zero(S4), ScalarField.one(S4)
    bad = [f"row {i + 1} . row {j + 1}"
           for i in range(3) for j in range(i, 3)
           if sum((a * b for a, b in zip(R[i], R[j])), zero)
           != (one if i == j else zero)]
    bad += [f"row {i + 1} = row {(i + 1) % 3 + 1} x row {(i + 2) % 3 + 1}"
            for i in range(3)
            if _cross(R[(i + 1) % 3], R[(i + 2) % 3]) != R[i]]
    if any(f.conjugate() != f for row in R for f in row):
        bad.append("real entries")
    return bad


# ---------------------------------------------------------------------------
# Rotated family at a point.

def _combine(coeffs, mats):
    """sum_l coeffs[l] * mats[l] for number or ScalarField coefficients,
    skipping zero numbers; the zero EndField when every number is zero."""
    acc = None
    for c, M in zip(coeffs, mats):
        if not isinstance(c, ScalarField):
            if c == 0:
                continue
            c = ScalarField.constant(M.chart, c)
        t = M.scale(c)
        acc = t if acc is None else acc + t
    if acc is None:
        return mats[0].scale(ScalarField.zero(mats[0].chart))
    return acc


def rotate_family(T: CliffordTriple, p: TwistorPoint) -> CliffordTriple:
    """K_i = sum_l (t_il I_l^+ + s_il I_l^-) at the twistor point p.

    Built through the projections and re-derived through the literal
    rotation formula
        K = T(z1) (I_i + I_j I_k)/2 + S(z2) (-I_i + I_j I_k)/2
    (cyclic products); the two constructions must agree exactly.  The output
    triple has its Clifford relations verified; integrability is inherited
    and is re-verified by the caller at whatever degree bound it needs.
    """
    if not T.status.relations_ok:
        raise ValueError("triple relations not verified")
    ind = induce(T)
    proj = project(ind, T)
    t = rot_T(p.zeta1)
    s = rot_S(p.zeta2)
    Ks = []
    for i in range(3):
        Ks.append(_combine(t[i], proj.Ip) + _combine(s[i], proj.Im))
    I = T.generators
    prods = (I[1] @ I[2], I[2] @ I[0], I[0] @ I[1])
    half = ScalarField.constant(T.chart, Fraction(1, 2))
    for i in range(3):
        alt = (_combine(t[i], [(I[l] + prods[l]).scale(half)
                               for l in range(3)])
               + _combine(s[i], [(prods[l] - I[l]).scale(half)
                                 for l in range(3)]))
        if not Ks[i].entries_equal(alt):
            raise AssertionError(
                "rotation construction paths disagree at K%d" % (i + 1))
    out = CliffordTriple(Ks[0], Ks[1], Ks[2], T.flux)
    rel = check_relations(out)
    if not rel.ok:
        raise AssertionError("rotated triple failed Clifford relations")
    return out.with_status(TripleStatus(rel, ()))


def theorem_1_2(T: CliffordTriple) -> SuiteReport:
    """Theorem 1.2 at every (zeta1, zeta2) of the stereographic chart: the
    rotated triple K(zeta1, zeta2) of ``rotate_family`` passes relations,
    generator integrability and the 21 families of ``theorem_1_1``, decided
    on the six sector generators I_l^+- of ``project(induce(T), T)``.

    Proof.  At a point, K_i = sum_l t_il I_l^+ + s_il I_l^- with
    t = rot_T(zeta1), s = rot_S(zeta2).

    (a) t, s in SO(3) at every point: ``rotation_field_failures`` decides
    that ``rot_field`` in (u1, v1) -- the formula ``rot_T`` evaluates, and
    ``rot_S`` is the same function -- has orthonormal rows, t_i = t_j x t_k
    (cyclic) and real entries, as exact rational-function identities.

    (b) ``project`` verifies I_a^s I_b^s = -d_ab G^s + e_abc I_c^s in each
    sector s, I^+ I^- = I^- I^+ = 0 and G^+ + G^- = Id (identities_ok).
    With (a), K_i K_j = -(t_i.t_j) G^+ + (t_i x t_j).I^+ + (the same in s
    and I^-), so K_i K_j + K_j K_i = -2 d_ij Id and K_j K_k = K_i
    (cyclic): the relations hold (each I_l^+- = (J_l +- I_l)/2 is
    skew-adjoint, so K_i is orthogonal) and the induced J(K) is K itself.
    Every family of the rotated suite is then N(K_i, K_j): N(K_i, K_j),
    N(J_i, J_j) and N(K_i, J_j) are, the generator tensor N_{K_i} is
    N(K_i, K_i) as K_i^2 = -Id, and the commuting families' anomaly is
    that of W = K_i K_i = -Id, which is zero.  So the rotated suite passes
    at (zeta1, zeta2) iff N(K_i, K_j) = 0 there for all i, j.  The same
    identities give the products of the 24 families of (c), which are
    read, not multiplied (``theorem_1_2_families``): for every a, b and
    X_ab = I_a^+ + I_b^-,

        I_a^+ I_b^- = I_b^- I_a^+ = 0,
        X_ab X_ab = (I_a^+)^2 + I_a^+ I_b^- + I_b^- I_a^+ + (I_b^-)^2
                  = -G^+ - G^- = -Id,

    and for a < b, I_a^s I_b^s = e_abc I_c^s = -I_b^s I_a^s.

    (c) The concomitant N(X, Y) is R-bilinear and symmetric in (X, Y), so

        N(K_i, K_j) = sum_ab t_ia t_jb N(I_a^+, I_b^+)
                      + s_ia s_jb N(I_a^-, I_b^-)
                      + (t_ia s_jb + t_ja s_ib) N(I_a^+, I_b^-).

    It vanishes for every (zeta1, zeta2) iff these 24 families vanish:

    - the 9 mixed N(I_a^+, I_b^-);
    - the 6 N(I_a^s, I_b^s) with a < b;
    - the 9 N(X_ab, X_ab), which given the mixed ones is
      N(I_a^+, I_a^+) + N(I_b^-, I_b^-).

    If they vanish, N(I_a^+, I_a^+) = -N(I_b^-, I_b^-) = lambda for all
    a, b, and N(K_i, K_j) = lambda (t_i.t_j - s_i.s_j) = 0.  Conversely,
    take i = j = 1: t_1 = c(zeta1) and s_1 = c(zeta2) each cover the
    sphere less one point, so by continuity Q^+(t) + 2 B(t, s) + Q^-(s)
    = 0 on all of S^2 x S^2.  Replacing s by -s gives B = 0, so the mixed
    families vanish; Q^+(t) = -Q^-(s) for all unit t, s makes both
    quadratic forms constant multiples of |.|^2, which is the rest.

    (d) In each of the 24 pairs (X, Y) both structures are skew-adjoint
    and XY + YX is a constant multiple of Id (0, 0 and -2 Id, by (b)), so
    each family is C-infinity-bilinear and skew, and ``gcs.vanishes``
    decides it on the n(2n - 1) frame pairs a < b: 24 n(2n - 1) checks
    (672 at n = 4, 2,880 at n = 8).

    A failed (a) or a failed projection identity fails the report with no
    families, its note naming the failure.
    """
    bad = rotation_field_failures()
    if bad:
        return SuiteReport("theorem_1_2", "fail", [],
                           "rotation field not in SO(3): " + ", ".join(bad))
    if not project(induce(T), T).identities_ok:
        return SuiteReport("theorem_1_2", "fail", [],
                           "projection identities (G+-, I_i+-) fail")
    families = [vanishes(fam) for fam in theorem_1_2_families(T)]
    ok = all(r.vanished for r in families)
    return SuiteReport("theorem_1_2", "pass" if ok else "fail", families,
                       "24 sector-generator families by the Leibniz-symbol "
                       "certificate: every (zeta1, zeta2), all smooth "
                       "sections")


def theorem_1_2_families(T: CliffordTriple):
    """The 24 families of ``theorem_1_2`` (c), in its order: the 9
    N(I_a+, I_b-), the 6 N(I_a s, I_b s) with a < b for s = +, -, and the
    9 N(X_ab, X_ab).  Each is bound to its structures' records in T's
    numerator store and carries its products I J, J I and I J + J I as
    (b) proves them from ``project``'s identities, which the caller must
    have verified; so no product is multiplied."""
    store = _store(T)
    ab = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]

    def bind(A, B, s, t, X=None):
        # A B = s X and B A = t X (X None for Id), so A B + B A = (s + t) X
        return BoundTensor("concomitant", f"N({A},{B})", (store[A], store[B]),
                           T.flux, ((s, X), (t, X), (s + t, X)))

    def sector(a, b, sg):   # I_a I_b = e_abc I_c = -I_b I_a in sector sg
        e = levi_civita(a, b, 6 - a - b)
        return bind(f"I{a}{sg}", f"I{b}{sg}", e, -e, store[f"I{6-a-b}{sg}"])
    return ([bind(f"I{a}+", f"I{b}-", 0, 0) for a, b in ab]
            + [sector(a, b, sg) for sg in "+-" for a, b in ab if a < b]
            + [bind(f"X{a}{b}", f"X{a}{b}", -1, -1) for a, b in ab])


# ---------------------------------------------------------------------------
# Connection data over the sphere chart.

@dataclass
class ConnectionData:
    """The connection data over the sphere chart (u1, v1, u2, v2): the unit
    vectors c = c(zeta1), d = c(zeta2), the forms omega1 = c x dc and
    omega2 = d x dd (3 KForms of degree 1 each), Ihat = c.I+ + d.I- as
    numerators (rows, 1) over m^1, m the integral sphere base ``base``
    that ``_ihat`` builds, the constant sector generators I_l^+- as kernel
    matrices, and ``project``'s verdict on their algebra (identities_ok).

    The connection form is Omega = omega1.I+ + omega2.I-, with (0,1)-parts
    A1 = (Omega_u1 + i Omega_v1)/4 and A2 = (Omega_u2 + i Omega_v2)/4, so
    V = A1 dzbar1 + A2 dzbar2.  None of them is built as a matrix: every
    identity about them reduces to c, d, omega1, omega2 and the sector
    algebra.  identities_ok gives I_a^s I_b^s = -d_ab G^s + e_abc I_c^s in
    each sector s and I+ I- = I- I+ = 0, so for vector-valued a, b (the
    I_l^+- are constant, scalar functions commute with them)

        [a.I+, b.I+] = 2 (a x b).I+,  [a.I-, b.I-] = 2 (a x b).I-,
        [a.I+, b.I-] = 0.

    Proof: [a.I^s, b.I^s] = sum_kl a_k b_l (I_k^s I_l^s - I_l^s I_k^s)
    = sum_kl a_k b_l 2 e_klc I_c^s = 2 (a x b).I^s, the -d_kl G^s terms
    cancelling, and [a.I+, b.I-] = sum_kl a_k b_l (I_k^+ I_l^- - I_l^- I_k^+)
    = 0.  These commutators are not checked as matrices: ``_ihat`` refuses
    every triple whose identities_ok is false, so connection data exist
    only where they hold.

    The triple enters the connection identities only through identities_ok;
    the rest is about the sphere chart (``check_dI_commutator``,
    ``check_flatness``)."""

    chart: Chart
    c: tuple
    d: tuple
    omega1: tuple          # 3 KForms of degree 1
    omega2: tuple
    Ihat: tuple            # (rows, 1)
    base: _PowerDen        # Ihat's base m
    Ip: tuple              # constant sector generators (kernel matrices)
    Im: tuple
    identities_ok: bool


def _form_vector_cross(chart, v):
    """omega = v x dv for a 3-vector v of ScalarFields, as 3 KForms of
    degree 1: V x dV over m^2, for the numerators V of v over the LCM m of
    its denominators and their plain partials dV, each coefficient
    normalized once.

    Proof: v = V / m and dv = (m dV - V dm) / m^2, so
    v x dv = (m V x dV - (V x V) dm) / m^3 = V x dV / m^2, as V x V = 0."""
    base = _PowerDen.lcm(chart, v)
    V = [base.numerator(x) for x in v]
    dV = [row or [{}] * chart.dim for row in K.sec_jacobian(chart.dim, V)]
    den = Poly(chart, base.mpow(2))
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(KForm(chart, 1, {
            (w,): ScalarField(Poly(chart, K.p_sub(K.p_mul(V[j], dV[k][w]),
                                                  K.p_mul(V[k], dV[j][w]))),
                              den)
            for w in range(chart.dim)}))
    return tuple(out)


def _sector_sum(polys, mats):
    """sum_l polys[l] * mats[l] for numerator polynomials polys[l] and
    constant kernel matrices mats[l] (rows of (column, coefficient) pairs),
    as dense rows of numerators."""
    size = len(mats[0])
    out = [[{} for _ in range(size)] for _ in range(size)]
    for p, M in zip(polys, mats):
        if not p:
            continue
        for i, row in enumerate(M):
            for j, a in row:
                out[i][j] = K.p_add(out[i][j], K.p_scale(p, a))
    return out


def _ihat(T: CliffordTriple, chart: Chart):
    """The guards of the twistor layer, then, over a chart whose last four
    coordinates are (u1, v1, u2, v2): c and d, the sphere base m, the six
    sector generators I_1+, I_2+, I_3+, I_1-, I_2-, I_3- as constant
    2n x 2n kernel matrices (the kernel layouts of the triple's numerator
    store, ``clifford._Store``), the numerators of Ihat = c.I+ + d.I- over
    m^1, and the projections.  |c|^2 = |d|^2 = 1 is checked exactly on the
    numerators of c and d over m^1.  A triple whose projection identities
    fail is refused: Ihat and everything built on it rest on the sector
    algebra.

    m = L q1 q2 (``_sphere_base``), q_s = 1 + u_s^2 + v_s^2, is integral,
    as ``gcs._PowerDen`` keeps every base but the unit: L is the LCM of
    the denominators of the sector generators' coefficients.  The
    numerators of c and d over q1 q2 are integer polynomials, so over m
    they are L times those; then each term c_l I_l^+- of Ihat's numerators
    is integral, and so is J_sphere's m.  Every Jacobian, bracket and
    structure application of ``theorem_1_3`` stays integral too.

    The sector generators are constant, so nothing here depends on the
    dimension of the triple's chart."""
    if not T.status.relations_ok:
        raise ValueError("triple relations not verified")
    if not all(E.is_constant for E in T.generators):
        raise ValueError("the twistor layer needs a constant-coefficient "
                         "triple")
    proj = project(induce(T), T)
    if not proj.identities_ok:
        raise ValueError("projection identities (G+-, I_i+-) fail")
    store = _store(T)
    sectors = [store[f"I{l}{s}"].kernel for s in "+-" for l in (1, 2, 3)]
    s = chart.dim - 4
    c = stereo_field(chart, s, s + 1)
    d = stereo_field(chart, s + 2, s + 3)
    base = _sphere_base(chart, _den_lcm(a for M in sectors for row in M
                                        for _, a in row))
    nums = [base.numerator(f) for f in c + d]
    m2 = base.mpow(2)
    if K.p_dot((x, x) for x in nums[:3]) != m2:
        raise AssertionError("|c|^2 != 1")
    if K.p_dot((x, x) for x in nums[3:]) != m2:
        raise AssertionError("|d|^2 != 1")
    return c, d, base, sectors, _sector_sum(nums, sectors), proj


def connection_data(T: CliffordTriple) -> ConnectionData:
    """Assemble c, d, omega1 = c x dc, omega2 = d x dd and Ihat over the
    sphere chart; |c| = |d| = 1 is checked exactly in ``_ihat``."""
    S4 = sphere_chart()
    c, d, base, sectors, Ihat, proj = _ihat(T, S4)
    return ConnectionData(S4, c, d, _form_vector_cross(S4, c),
                          _form_vector_cross(S4, d), (Ihat, 1), base,
                          tuple(sectors[:3]), tuple(sectors[3:]),
                          proj.identities_ok)


def _sphere_base(chart, scale: int = 1) -> _PowerDen:
    """Fixed-denominator arithmetic over
    m = scale (1+u1^2+v1^2)(1+u2^2+v2^2), the sphere coordinates
    (u1, v1, u2, v2) being the chart's last four; integral for an integer
    scale."""
    s = chart.dim - 4
    q1, q2 = ((Poly.one(chart) + Poly.variable(chart, s + w) ** 2
               + Poly.variable(chart, s + w + 1) ** 2).terms for w in (0, 2))
    return _PowerDen(chart, K.p_scale(K.p_mul(q1, q2), (scale, 0, 1)))


def _omega_turns_frames(conn: ConnectionData) -> bool:
    """d_w c = omega1_w x c and d_w d = omega2_w x d for each sphere
    coordinate w, decided per sphere factor on numerators over the LCM m of
    the denominators of the vector and its form's coefficients: both sides
    are numerators over m^2, d_w (V / m) as m d_w V - V d_w m, so no
    rational normalization is needed."""
    for v, omega in ((conn.c, conn.omega1), (conn.d, conn.omega2)):
        om = [tuple(f.coeff((w,)) for f in omega) for w in range(4)]
        base = _PowerDen.lcm(conn.chart, v + sum(om, ()))
        V = [base.numerator(x) for x in v]
        for w in range(4):
            O = [base.numerator(g) for g in om[w]]
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                cross = K.p_sub(K.p_mul(O[j], V[k]), K.p_mul(O[k], V[j]))
                dV = K.p_sub(K.p_mul(base.m, K.p_diff(V[i], w)),
                             K.p_mul(V[i], base.dm[w]))
                if K.p_sub(cross, dV):
                    return False
    return True


def _sector_local(conn: ConnectionData) -> bool:
    """omega1 has no du2 or dv2 component and coefficients free of u2 and
    v2; omega2 the same with u1 and v1."""
    for omega, other in ((conn.omega1, (2, 3)), (conn.omega2, (0, 1))):
        for f in omega:
            for (w,), g in f.coeffs.items():
                if w in other or any(not g.diff(t).is_zero for t in other):
                    return False
    return True


def check_dI_commutator(conn: ConnectionData) -> bool:
    """d Ihat = [Omega, Ihat]/2 componentwise in u1, v1, u2, v2, and the
    (0,1)-part identity dbar_s Ihat = [A_s, Ihat] per sphere factor with
    dbar = (d_u + i d_v)/2; decided as identities_ok plus
    d_w c = omega1_w x c and d_w d = omega2_w x d for the four w.

    Proof.  With the commutators of ``ConnectionData``,
    [Omega_w, Ihat]/2 = (omega1_w x c).I+ + (omega2_w x d).I-, while
    d_w Ihat = (d_w c).I+ + (d_w d).I-: the vector identities give
    d Ihat = [Omega, Ihat]/2.  A_s = (Omega_u + i Omega_v)/4 is linear in
    Omega, so [A_s, Ihat] = (d_u Ihat + i d_v Ihat)/2 = dbar_s Ihat follows
    by linearity.
    """
    return conn.identities_ok and _omega_turns_frames(conn)


def check_flatness(conn: ConnectionData) -> bool:
    """dbar_S V - V ^ V = 0 for the (0,1) connection V of Ihat; decided
    as identities_ok, the vector identities of ``check_dI_commutator`` (the
    omegas are Ihat's connection) and sector locality.

    Proof.  Sector locality: omega1 has no du2 or dv2 component and its
    coefficients are free of u2 and v2, omega2 the same with u1 and v1.
    Then A1 = alpha.I+ with alpha = (omega1_u1 + i omega1_v1)/4 free of
    (u2, v2), and A2 = gamma.I- with gamma = (omega2_u2 + i omega2_v2)/4
    free of (u1, v1); by d c = omega1 x c, c is free of (u2, v2) and d of
    (u1, v1) too.  The only coefficient of the curvature, that of
    dzbar1 ^ dzbar2, is dbar1 A2 - dbar2 A1 - [A1, A2]: locality makes the
    first two terms zero, and [A1, A2] = [alpha.I+, gamma.I-] is a mixed
    commutator, which is zero.
    """
    return (conn.identities_ok and _omega_turns_frames(conn)
            and _sector_local(conn))


# ---------------------------------------------------------------------------
# Twistor space over the product chart.

# The entries (i, j, s) of the product-sphere structure on the sphere frame
# (d_u1, d_v1, d_u2, d_v2, du1, dv1, du2, dv2): entry (i, j) is the constant
# s = +-1, every other entry 0.  In both blocks, rows 2k and 2k + 1 hold the
# 2 x 2 block [[0, -1], [1, 0]], which squares to -Id (so does its negative).
SPHERE_PATTERN = tuple((i, i ^ 1, 1 if i % 2 else -1) for i in range(8))


def sphere_gcs(chart: Chart | None = None) -> EndField:
    """The product-sphere generalized complex structure
    [[-J_zeta, 0], [0, J_zeta^T]] (constant 8x8), with the entries of
    ``SPHERE_PATTERN``.

    Orientation: J_zeta d_u = -d_v per factor, i.e. the holomorphic
    coordinate of the fiber structure is the CONJUGATE of the stereographic
    zeta = u + i v used by the rotation matrices.  With the opposite sign
    (J_zeta d_u = +d_v) the +i eigenbundle of Ihat (+) J is provably not
    involutive (exact witness brackets exist); with this one the twistor
    structure is integrable.  The +i eigenbundle is spanned by the
    anti-holomorphic vectors and holomorphic covectors of the fiber
    structure, i.e. by d/d_zeta_s and d_zetabar_s in stereographic terms.
    """
    if chart is None:
        chart = sphere_chart()
    if chart.dim != 4:
        raise ValueError("sphere chart must have 4 coordinates")
    entries = [[ScalarField.zero(chart)] * 8 for _ in range(8)]
    for i, j, s in SPHERE_PATTERN:
        entries[i][j] = ScalarField.constant(chart, s)
    out = EndField(chart, entries)
    if not is_almost_gcs(out):
        raise AssertionError("sphere structure failed the almost-GCS checks")
    return out


def product_chart(T: CliffordTriple) -> Chart:
    return Chart(T.chart.names + SPHERE_COORDS)


def _twistor_numerators(T: CliffordTriple):
    """(Z, base, rows): the product chart Z = (x..., u1, v1, u2, v2), the
    integral sphere base m = L q1 q2 of ``_ihat`` and the dense numerators
    over m^1 of Ihat (+) J_sphere on Z -- Ihat's numerators as ``_ihat``
    builds them, and m times the constant entries of ``SPHERE_PATTERN``,
    written directly: no ``sphere_gcs`` EndField is built.  Every
    numerator has Gaussian-integer coefficients."""
    Z = product_chart(T)
    _, _, base, _, Ihat, _ = _ihat(T, Z)
    n = T.chart.dim
    N = Z.dim
    size = 2 * N
    rows = [[{} for _ in range(size)] for _ in range(size)]

    def mslot(i):
        return i if i < n else N + (i - n)

    def sslot(i):
        return n + i if i < 4 else N + n + (i - 4)

    for i, row in enumerate(Ihat):
        for j, p in enumerate(row):
            if p:
                rows[mslot(i)][mslot(j)] = p
    for i, j, s in SPHERE_PATTERN:
        rows[sslot(i)][sslot(j)] = K.p_scale(base.m, (s, 0, 1))
    return Z, base, rows


def _twistor_tensor(T: CliffordTriple):
    """(Z, N_J): the product chart and the Nijenhuis tensor of
    J = Ihat (+) J_sphere, bound to its numerators over the sphere base m
    (``_twistor_numerators``) and to its square -Id, read as -m^2 Id with
    no product taken.

    ``_ihat`` refuses every triple whose projection identities fail and
    checks |c|^2 = |d|^2 = 1, and identities_ok gives
    I_k^s I_l^s = -d_kl G^s + e_klj I_j^s in each sector s, I+ I- = I- I+ = 0
    and G+ + G- = Id (``project``).  So, c and d being scalar functions,

        Ihat^2 = sum_kl c_k c_l I_k+ I_l+ + sum_kl d_k d_l I_k- I_l-
               = -|c|^2 G+ - |d|^2 G- = -Id,

    the e_klj terms cancelling since c_k c_l and d_k d_l are symmetric in
    k, l.  J_sphere^2 = -Id holds since every 2 x 2 block of
    ``SPHERE_PATTERN`` squares to -Id (``sphere_gcs`` checks it on the
    EndField), and the two blocks act on disjoint coordinates of the
    product chart."""
    Z, base, rows = _twistor_numerators(T)
    return Z, BoundTensor("nijenhuis", "N(Ihat+J_sphere)",
                          (_Structure(base, rows),), None, ((-1, None),))


def twistor_structure(T: CliffordTriple) -> EndField:
    """Ihat(zeta1, zeta2) (+) J_sphere over the product chart
    (x..., u1, v1, u2, v2); requires a constant-coefficient triple so that
    all sphere dependence comes through c and d.  The entries are the
    numerators of ``_twistor_numerators`` over the sphere base m, each
    normalized once.  T.flux is on the triple's chart: a zero flux is
    dropped, and a nonzero one is not lifted to the product chart
    (EndField rejects it)."""
    _, base, rows = _twistor_numerators(T)
    flux = None if T.flux is None or T.flux.is_zero else T.flux
    return base.endfield(rows, flux)


@dataclass
class TwistorReport:
    status: str
    nijenhuis_checks: int = 0
    witnesses: list = None
    mode: str = "symbolic"
    note: str = ""

    def __post_init__(self):
        if self.witnesses is None:
            self.witnesses = []


def theorem_1_3(T: CliffordTriple, degree_bound: int | None = None,
                samples=None, max_witnesses: int = 10) -> TwistorReport:
    """Integrability of the twistor structure on the product chart.

    The Nijenhuis tensor of Ihat (+) J_sphere is evaluated by
    ``gcs.vanishes``'s evaluator, as exact numerators over a power of the
    integral sphere base m, from the structure's numerators over m
    (``_twistor_numerators``), all with Gaussian-integer coefficients.
    With degree_bound None (the default) this is the symbol certificate:
    the structure squares to -Id, which follows from what ``_ihat`` checks
    and from ``SPHERE_PATTERN`` (``_twistor_tensor``; the square is not
    multiplied out), and is skew-adjoint for the pairing, checked exactly
    on its numerators, so its Nijenhuis tensor is C-infinity-bilinear and
    skew, and the frame pairs (e_a, e_b) with a < b decide it for all
    smooth sections.  Fewer pairs suffice: at the origin of the product
    chart, where m = L > 0, the frame elements e_R of a
    J-complex frame R (``gcs._complex_frame``) and their images J e_R form
    a basis, and the pairs r < s within each half of R, split in index
    order, decide N_J, since the involutivity tensor of each eigenbundle of
    J is totally skew (the proof is in ``gcs._complex_frame``).  J is real
    there, so R has half the 2n + 8 frame elements, and the pairs are
    2 C((n + 4)/2, 2) for even n, of the (2n + 8)(2n + 7)/2 pairs a < b on
    the (n + 4)-coordinate product chart: 12 of 120 at n = 4 and 30 of 276
    at n = 8.  An integer degree_bound
    sweeps all pairs from frame x (degree <= degree_bound monomials)
    instead, as a cross-check.  Symbolic mode tests each numerator for
    zero; with ``samples`` a list of TwistorPoints the numerator of every
    frame pair a < b (R is a basis on a dense set only, not at every
    point) is evaluated exactly at (0, ..., 0, Re zeta1, Im zeta1,
    Re zeta2, Im zeta2) for each point, where m >= 1, so a check fails at
    a point iff the tensor is nonzero there.  Witnesses are capped at
    max_witnesses per point.

    The mixed-bracket identities of a sphere frame field with a section v,
    [d_w, v] = d_w v (componentwise) and [dw, v] = 0, are not checked here:
    at zero flux the Dorfman bracket [X + xi, Y + eta] = [X, Y] + L_X eta
    - i_Y dxi gives both for every section v, since L_{d_w} acts
    componentwise on the coordinate frame and d(dw) = 0.  They hold
    whatever the structure, so they test the bracket, not the theorem.
    """
    if T.flux is not None and not T.flux.is_zero:
        return TwistorReport("inconclusive",
                             note="twistor sweep implemented for zero flux")
    Z, tensor = _twistor_tensor(T)
    n = T.chart.dim
    rep = TwistorReport("pass", mode="sampled" if samples else "symbolic")
    _, degree, pairs = _residuals(tensor, degree_bound,
                                  pointwise=bool(samples))
    labels = None           # built at the first witness
    # (witness prefix, point or None for the symbolic zero test, note)
    if samples:
        points = [((f"{p}",), (0,) * n + (p.zeta1.re, p.zeta1.im,
                                          p.zeta2.re, p.zeta2.im),
                   "nonzero at point") for p in samples]
    else:
        points = [((), None, "nonzero")]
    found = [[] for _ in points]
    for i, j, out in pairs:
        for (prefix, pt, note), wit in zip(points, found):
            if len(wit) >= max_witnesses:
                continue
            rep.nijenhuis_checks += 1
            if pt is None:
                bad = not K.sec_is_zero(out)
            else:
                bad = any(not Poly(Z, p).evaluate(pt).is_zero
                          for p in out if p)
            if bad:
                if labels is None:
                    labels = generator_labels(Z, degree)
                wit.append(prefix + (labels[i], labels[j], note))
        if all(len(wit) >= max_witnesses for wit in found):
            break
    rep.witnesses = [w for wit in found for w in wit]
    if rep.witnesses:
        rep.status = "fail"
    return rep


def sample_points(count: int, seed: int = 0, include_basics: bool = True):
    """Deterministic pseudo-random Gaussian-rational twistor points."""
    import random
    rng = random.Random(seed)
    pts = []
    if include_basics:
        pts = [TwistorPoint(GaussianRational(0), GaussianRational(0)),
               TwistorPoint(GaussianRational(1), GaussianRational(0, 1)),
               TwistorPoint(GaussianRational(0, 1), GaussianRational(1))]

    def rnd():
        return GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)))

    while len(pts) < count:
        pts.append(TwistorPoint(rnd(), rnd()))
    return pts[:count]
