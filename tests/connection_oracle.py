"""Test helper: the dense-matrix oracle of the connection identities.

``twistor.check_dI_commutator`` and ``twistor.check_flatness`` decide the
identities on the unit vectors c, d, the forms omega1, omega2 and the sector
algebra.  Here the same identities are decided as 2n x 2n numerator-matrix
identities over powers of the sphere base m: the connection form
Omega = omega1.I+ + omega2.I- and its (0,1)-parts A1, A2 are assembled as
matrices, and d Ihat = [Omega, Ihat]/2, dbar_s Ihat = [A_s, Ihat] and the
curvature of A1 dzbar1 + A2 dzbar2 are tested entry by entry.

Two identities that no suite checks are kept here as well: the cross-product
commutators of the sector generators, which ``project``'s identities_ok
implies (proof in ``twistor.ConnectionData``), and the mixed brackets of a
sphere frame field with a twistor-structure column, which the Dorfman
formula gives for every section (``twistor.theorem_1_3``).
"""

from fractions import Fraction

from gencliff._core import kernel as K
from gencliff.gcs import _kernel_generators, _mat_mul_terms
from gencliff.scalar import ScalarField
from gencliff.twistor import _combine, _cross, _sector_sum


def mat_lift(base, A, ka, target):
    """A / m^ka as numerators over m^target."""
    if ka == target:
        return A
    f = base.mpow(target - ka)
    return [[K.p_mul(e, f) if e else {} for e in row] for row in A]


def mat_sub(base, A, ka, B, kb):
    top = max(ka, kb)
    A = mat_lift(base, A, ka, top)
    B = mat_lift(base, B, kb, top)
    return [[K.p_sub(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(A, B)], top


def mat_add(base, A, ka, B, kb):
    top = max(ka, kb)
    A = mat_lift(base, A, ka, top)
    B = mat_lift(base, B, kb, top)
    return [[K.p_add(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(A, B)], top


def mat_scale(A, c):
    return [[K.p_scale(e, c) if e else {} for e in row] for row in A]


def quotient_rule(base, e, k, t):
    """The numerator of d/dx_t (e / m^k) over m^(k+1),
    m d_t e - k e d_t m: the reference the library's Leibniz-rule brackets
    (``gcs._PowerDen.dorfman``) are compared against."""
    return K.p_sub(K.p_mul(base.m, K.p_diff(e, t)),
                   K.p_mul(e, K.p_scale(base.dm[t], (k, 0, 1))))


def mat_diff(base, A, ka, t):
    """Entrywise d/dx_t of A/m^ka, over m^(ka+1)."""
    return [[quotient_rule(base, e, ka, t) if e else {} for e in row]
            for row in A], ka + 1


def mat_is_zero(A):
    return all(not e for row in A for e in row)


def mat_commutator(base, A, ka, B, kb):
    return mat_sub(base, _mat_mul_terms(A, B), ka + kb,
                   _mat_mul_terms(B, A), ka + kb)


HALF, I_HALF = (1, 0, 2), (0, 1, 2)


def connection_matrices(conn):
    """(base, Omega, A1, A2): Omega maps each sphere coordinate w to the
    numerators (rows, 2) of Omega_w over m^2, m the base of conn.Ihat
    (omega = c x dc has denominator (1+u1^2+v1^2)^2, which divides m^2);
    A_s = (Omega_u + i Omega_v)/4."""
    base = conn.base
    sectors = list(conn.Ip) + list(conn.Im)
    Omega = {w: (_sector_sum([base.numerator(f.coeff((w,)), 2)
                              for f in conn.omega1 + conn.omega2], sectors), 2)
             for w in range(4)}
    quarter, i_quarter = (1, 0, 4), (0, 1, 4)
    A1, A2 = (mat_add(base, mat_scale(Omega[u][0], quarter), 2,
                      mat_scale(Omega[v][0], i_quarter), 2)
              for u, v in ((0, 1), (2, 3)))
    return base, Omega, A1, A2


def _dbar(base, A, ka, iu, iv):
    du, ku = mat_diff(base, A, ka, iu)
    dv, kv = mat_diff(base, A, ka, iv)
    return mat_add(base, mat_scale(du, HALF), ku, mat_scale(dv, I_HALF), kv)


def dI_commutator(conn) -> bool:
    """d Ihat = [Omega, Ihat]/2 componentwise in u1, v1, u2, v2, and
    dbar_s Ihat = [A_s, Ihat] per sphere factor, on numerator matrices."""
    base, Omega, A1, A2 = connection_matrices(conn)
    Ih, ki = conn.Ihat
    for w in range(4):
        lhs, kl = mat_diff(base, Ih, ki, w)
        comm, kc = mat_commutator(base, *Omega[w], Ih, ki)
        diff, _ = mat_sub(base, lhs, kl, mat_scale(comm, HALF), kc)
        if not mat_is_zero(diff):
            return False
    for (iu, iv), A in (((0, 1), A1), ((2, 3), A2)):
        lhs, kl = _dbar(base, Ih, ki, iu, iv)
        rhs, kr = mat_commutator(base, *A, Ih, ki)
        diff, _ = mat_sub(base, lhs, kl, rhs, kr)
        if not mat_is_zero(diff):
            return False
    return True


def flatness(conn) -> bool:
    """dbar V - V ^ V = 0 for V = A1 dzbar1 + A2 dzbar2, on numerator
    matrices: the proof's two halves (A1 free of (u2, v2) and A2 free of
    (u1, v1); [A1, A2] = 0) and the assembled dzbar1 ^ dzbar2
    coefficient."""
    base, _, (A1, k1), (A2, k2) = connection_matrices(conn)
    for A, ka, other in ((A1, k1, (2, 3)), (A2, k2, (0, 1))):
        for t in other:
            if not mat_is_zero(mat_diff(base, A, ka, t)[0]):
                return False
    comm, kc = mat_commutator(base, A1, k1, A2, k2)
    if not mat_is_zero(comm):
        return False
    d1A2, ka = _dbar(base, A2, k2, 0, 1)
    d2A1, kb = _dbar(base, A1, k1, 2, 3)
    curv, kk = mat_sub(base, d1A2, ka, d2A1, kb)
    curv, _ = mat_sub(base, curv, kk, comm, kc)
    return mat_is_zero(curv)


def cross_commutator(a, b, proj) -> bool:
    """[a.I+, b.I+] = 2 (a x b).I+ (same for the minus sector) and
    [a.I+, b.I-] = 0, as exact EndField identities."""
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
    two = ScalarField.constant(proj.Ip[0].chart, 2)
    ab = _cross(a, b)
    ok = True
    for fam in (proj.Ip, proj.Im):
        lhs = (_combine(a, fam) @ _combine(b, fam)) - \
            (_combine(b, fam) @ _combine(a, fam))
        ok = ok and lhs.entries_equal(_combine(ab, fam).scale(two))
    mixed = (_combine(a, proj.Ip) @ _combine(b, proj.Im)) - \
        (_combine(b, proj.Im) @ _combine(a, proj.Ip))
    return ok and mixed.is_zero


def mixed_bracket_checks(Z, n, base, rows) -> bool:
    """[d_w, v] = d_w v (componentwise) and [dw, v] = 0 for the four sphere
    coordinates w of the product chart Z (a triple on n coordinates), with
    v a vector-type and a covector-type column of the twistor structure's
    numerators rows over the sphere base m (``_twistor_numerators``); both
    sides are numerators over m^2."""
    N = Z.dim
    frames = _kernel_generators(Z, 0)
    vs = [[row[j] for row in rows] for j in (0, N)]

    def bracket(alpha, v):
        return base.dorfman(base.operand(alpha, 0), base.operand(v, 1), None,
                            2)
    for w in range(4):
        for v in vs:
            if bracket(frames[n + w], v) != \
                    [quotient_rule(base, p, 1, n + w) for p in v]:
                return False
            if not K.sec_is_zero(bracket(frames[N + n + w], v)):
                return False
    return True
