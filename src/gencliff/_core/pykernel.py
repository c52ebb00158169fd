"""Pure-Python arithmetic kernel: the exact polynomial, section and bracket
arithmetic under every verification sweep.

Data layout:

  coefficient  (a, b, d)   the Gaussian rational (a + b*i)/d with d > 0 and
                           gcd(a, b, d) = 1; exact arbitrary-precision ints.
  monomial     one non-negative int holding the exponent vector: variable i
               has the W-bit field at bits [W*i, W*i + W), so the constant
               monomial is 0, a monomial product is m1 + m2 and d/dx_i
               subtracts 1 << W*i.  The top bit of each field is a guard:
               exponents are at most EXP_LIMIT, and a product that reaches a
               guard bit raises ExponentLimitError instead of carrying into
               the next variable.  ``mono`` packs an exponent sequence,
               ``var`` is the monomial x_i, ``exponents`` unpacks one,
               ``degree`` sums one, and ``grlex_key`` orders monomials
               graded-lexicographically (variable 0 most significant).
               MAX_VARS variables at most.
  polynomial   dict mapping monomials to coefficients; the zero polynomial is
               the empty dict, zero coefficients are never stored.
  section      list of 2n polynomials (n vector components then n covector
               components) over an n-coordinate chart.
  flux         dict mapping strictly increasing index triples (i, j, k) to
               polynomials (the coefficient of dx^i ^ dx^j ^ dx^k).
  matrix       list of 2n rows; constant matrices store rows as lists of
               (column, coefficient) pairs, polynomial matrices as lists of
               (column, polynomial) pairs.  Zero entries are omitted.

  jacobian     list of 2n entries, one per section component: None for a zero
               component, else the list of its n partial derivatives (the
               derivative by x_t at index t).

All public functions are pure: inputs are never mutated, and no output
shares a dict with an input.
"""

from math import gcd

W = 16                              # bits per variable field
EXP_LIMIT = (1 << (W - 1)) - 1      # largest exponent: the guard bit clear
MAX_VARS = 256                      # variables the guard mask covers
_FIELD = (1 << W) - 1
GUARD = sum(1 << (W * i + W - 1) for i in range(MAX_VARS))


class ExponentLimitError(OverflowError):
    """A monomial exponent exceeds EXP_LIMIT, the largest a field holds.

    Not a ValueError: it is an implementation limit, never a mathematical
    failure, so the suites' error handling must not report it as one."""

    def __init__(self):
        super().__init__(f"a monomial exponent exceeds the limit {EXP_LIMIT}")


def mono(exps):
    """The monomial of an exponent sequence (exponent of variable i at
    index i)."""
    m = 0
    for i, e in enumerate(exps):
        if e < 0:
            raise ValueError("negative exponent")
        if e > EXP_LIMIT:
            raise ExponentLimitError()
        m |= e << (W * i)
    return m


def var(i):
    """The monomial x_i; e * var(i) is x_i^e for e <= EXP_LIMIT."""
    return 1 << (W * i)


def exponents(m, n=None):
    """The exponent tuple of a monomial over n variables; with n None, the
    tuple up to the last nonzero exponent."""
    if n is not None:
        return tuple((m >> (W * i)) & _FIELD for i in range(n))
    t = []
    while m:
        t.append(m & _FIELD)
        m >>= W
    return tuple(t)


def exponent(m, i):
    """The exponent of variable i in a monomial."""
    return (m >> (W * i)) & _FIELD


def degree(m):
    """The total degree of a monomial."""
    return sum(exponents(m))


def grlex_key(m):
    """Sort key of the graded-lex order: (total degree, exponent tuple) with
    variable 0 most significant.  The tuple stops at the last nonzero
    exponent, which orders like the full tuple (a longer tuple with an equal
    prefix has a positive exponent past it), so no variable count is
    needed."""
    t = exponents(m)
    return (sum(t), t)


C_ZERO = (0, 0, 1)
C_ONE = (1, 0, 1)
C_I = (0, 1, 1)


def c_make(a, b, d):
    """Normalize (a + b*i)/d into canonical triple form (d may be signed)."""
    if a == 0 and b == 0:
        return C_ZERO
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def c_add(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return c_make(a1 + a2, b1 + b2, d1)
    return c_make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def c_sub(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return c_make(a1 - a2, b1 - b2, d1)
    return c_make(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def c_neg(x):
    a, b, d = x
    return (-a, -b, d)


def c_conj(x):
    a, b, d = x
    return (a, -b, d)


def c_mul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return c_make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def c_inv(x):
    a, b, d = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    return c_make(a * d, -b * d, n)


def _p_iadd(acc, q):
    """acc += q in place.  acc must be a dict the caller owns (never a
    kernel function's input); q is not changed.  The accumulating loops
    below sum into one such dict instead of copying the running sum once
    per term."""
    if not acc:
        acc.update(q)
        return
    for m, c in q.items():
        x = acc.get(m)
        if x is None:
            acc[m] = c
        else:
            s = c_add(x, c)
            if s[0] == 0 and s[1] == 0:
                del acc[m]
            else:
                acc[m] = s


def _p_isub(acc, q):
    """acc -= q in place, on the same terms as _p_iadd."""
    for m, c in q.items():
        x = acc.get(m)
        if x is None:
            acc[m] = (-c[0], -c[1], c[2])
        else:
            s = c_sub(x, c)
            if s[0] == 0 and s[1] == 0:
                del acc[m]
            else:
                acc[m] = s


def p_add(p, q):
    out = dict(p)
    _p_iadd(out, q)
    return out


def p_sub(p, q):
    out = dict(p)
    if q:
        _p_isub(out, q)
    return out


def p_neg(p):
    return {m: (-c[0], -c[1], c[2]) for m, c in p.items()}


def p_scale(p, c):
    if c[0] == 0 and c[1] == 0:
        return {}
    if c == C_ONE:
        return dict(p)
    return {m: c_mul(x, c) for m, x in p.items()}


def p_mul(p, q):
    """Product of two polynomials.

    The term products of each output monomial are summed as unnormalized
    triples (numerators added directly over a shared denominator) and each
    output coefficient is normalized once, so one gcd is taken per output
    term rather than per term product.  Partial sums over different
    denominators merge over their LCM, so a sum's denominator stays the LCM
    of its term products' denominators instead of growing as their product.
    """
    if not p or not q:
        return {}
    acc = {}
    _p_mul_acc(acc, p, q)
    return _normalize_acc(acc)


def p_dot(pairs):
    """sum p * q over the (p, q) pairs, as one product accumulation: the
    term products of every pair are summed unnormalized, as in p_mul, and
    each output coefficient is normalized once, so a row of a matrix-section
    product takes one gcd per output term rather than one per pair."""
    acc = {}
    for p, q in pairs:
        if p and q:
            _p_mul_acc(acc, p, q)
    return _normalize_acc(acc)


def _p_mul_acc(acc, p, q):
    """acc += p * q in p_mul's unnormalized accumulator: monomial ->
    (a, b, d) with no gcd taken; a sum over different denominators merges
    over their LCM."""
    for m1, (a1, b1, d1) in p.items():
        for m2, (a2, b2, d2) in q.items():
            m = m1 + m2
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            x = acc.get(m)
            if x is None:
                acc[m] = (a, b, d)
            elif x[2] == d:
                acc[m] = (x[0] + a, x[1] + b, d)
            else:
                xa, xb, xd = x
                g = gcd(xd, d)
                u, v = d // g, xd // g
                acc[m] = (xa * u + a * v, xb * u + b * v, xd * u)


def _normalize_acc(acc):
    """The polynomial of an accumulator of _p_mul_acc: each coefficient
    normalized once, the zero ones dropped.  A monomial with a guard bit set
    is a product whose exponent passed EXP_LIMIT; both factors had their
    guard bits clear, so the field sum carried into its own guard bit and no
    further."""
    out = {}
    for m, (a, b, d) in acc.items():
        if m & GUARD:
            raise ExponentLimitError()
        if a or b:
            out[m] = c_make(a, b, d)
    return out


def p_diff(p, i):
    shift = W * i
    xi = var(i)
    out = {}
    for m, c in p.items():
        e = (m >> shift) & _FIELD
        if e == 0:
            continue
        mm = m - xi
        cc = c_make(c[0] * e, c[1] * e, c[2])
        x = out.get(mm)
        if x is None:
            out[mm] = cc
        else:
            # distinct source monomials cannot collide after one decrement
            out[mm] = c_add(x, cc)
    return out


def sec_add(A, B):
    return [p_add(a, b) for a, b in zip(A, B)]


def sec_sub(A, B):
    return [p_sub(a, b) for a, b in zip(A, B)]


def sec_is_zero(A):
    for a in A:
        if a:
            return False
    return True


def sec_pairing_differential(n, A):
    """D<A,A> = (0, df) for f = <A,A> = sum_k A[k] A[n+k]."""
    f = {}
    for k in range(n):
        if A[k] and A[n + k]:
            _p_iadd(f, p_mul(A[k], A[n + k]))
    return [{} for _ in range(n)] + [p_diff(f, t) for t in range(n)]


def mat_apply_const(M, A):
    """Apply a constant sparse matrix (rows of (col, coeff)) to a section."""
    out = []
    for row in M:
        acc = {}
        for j, c in row:
            aj = A[j]
            if aj:
                _p_iadd(acc, p_scale(aj, c))
        out.append(acc)
    return out


def mat_apply_poly(M, A):
    """Apply a polynomial sparse matrix (rows of (col, poly)) to a section."""
    return [p_dot((pe, A[j]) for j, pe in row) for row in M]


def flux_contract(n, X, Y, H):
    """1-form components of iota_Y iota_X H for stored triples i<j<k."""
    out = [{} for _ in range(n)]
    for (i, j, k), h in H.items():
        xi, xj, xk = X[i], X[j], X[k]
        yi, yj, yk = Y[i], Y[j], Y[k]
        # coeff of dx^k: h*(X^i Y^j - X^j Y^i), of dx^j: h*(X^k Y^i - X^i Y^k),
        # of dx^i: h*(X^j Y^k - X^k Y^j)
        t = p_sub(p_mul(xi, yj), p_mul(xj, yi))
        if t:
            _p_iadd(out[k], p_mul(h, t))
        t = p_sub(p_mul(xk, yi), p_mul(xi, yk))
        if t:
            _p_iadd(out[j], p_mul(h, t))
        t = p_sub(p_mul(xj, yk), p_mul(xk, yj))
        if t:
            _p_iadd(out[i], p_mul(h, t))
    return out


def sec_jacobian(n, A, diff=p_diff):
    """Jacobian of a section: entry c is None when A[c] is zero, else the
    list [diff(A[c], t) for t in range(n)].

    diff defaults to plain partials; the fixed-denominator sweeps of gcs
    pass quotient-rule derivatives (numerators of d/dx_t (A[c] / m^k) over
    m^(k+1)).  Sweeps build each operand's Jacobian once and reuse it for
    every bracket the operand enters.
    """
    return [[diff(a, t) for t in range(n)] if a else None for a in A]


def sec_dorfman(n, A, B, H=None, dA=None, dB=None):
    """Dorfman bracket of polynomial sections, optionally H-twisted.

    [X+xi, Y+eta] = [X,Y] + L_X eta - iota_Y d xi - iota_Y iota_X H with
      [X,Y]^i      = sum_j X^j dY^i/dx_j - Y^j dX^i/dx_j
      (L_X eta)_i  = sum_j X^j d eta_i/dx_j + eta_j dX^j/dx_i
      (i_Y dxi)_i  = sum_j Y^j (d xi_i/dx_j - d xi_j/dx_i)

    dA and dB are the Jacobians of A and of B (``sec_jacobian``); None means
    plain partials.  The fixed-denominator sweeps of gcs pass quotient-rule
    Jacobians: A and B are then the numerators of P / m^j and Q / m^k, H
    holds the flux numerators over m, and the result is the numerator of
    the bracket over m^(j+k+1).
    """
    if dA is None:
        dA = sec_jacobian(n, A)
    if dB is None:
        dB = sec_jacobian(n, B)
    out = [None] * (2 * n)
    for i in range(n):
        acc = {}
        dAi, dBi = dA[i], dB[i]
        for j in range(n):
            xj = A[j]
            if xj and dBi is not None:
                d = dBi[j]
                if d:
                    _p_iadd(acc, p_mul(xj, d))
            yj = B[j]
            if yj and dAi is not None:
                d = dAi[j]
                if d:
                    _p_isub(acc, p_mul(yj, d))
        out[i] = acc
    for i in range(n):
        acc = {}
        dBni, dAni = dB[n + i], dA[n + i]
        for j in range(n):
            xj = A[j]
            if xj and dBni is not None:
                d = dBni[j]
                if d:
                    _p_iadd(acc, p_mul(xj, d))
            ej = B[n + j]
            if ej and dA[j] is not None:
                d = dA[j][i]
                if d:
                    _p_iadd(acc, p_mul(ej, d))
            yj = B[j]
            if yj:
                if dAni is not None:
                    d = dAni[j]
                    if d:
                        _p_isub(acc, p_mul(yj, d))
                if dA[n + j] is not None:
                    d = dA[n + j][i]
                    if d:
                        _p_iadd(acc, p_mul(yj, d))
        out[n + i] = acc
    if H:
        hpart = flux_contract(n, A, B, H)
        for i in range(n):
            if hpart[i]:
                _p_isub(out[n + i], hpart[i])
    return out


def sec_jacobi_residual(n, A, B, C, H, AB, AC, BC):
    """[A,[B,C]] - [[A,B],C] - [B,[A,C]] given the cached inner brackets.

    Every operand is a (section, Jacobian) pair, so no derivative is taken
    here: the sweep builds each generator's and each cached bracket's
    Jacobian once.
    """
    t1 = sec_dorfman(n, A[0], BC[0], H, A[1], BC[1])
    t2 = sec_dorfman(n, AB[0], C[0], H, AB[1], C[1])
    t3 = sec_dorfman(n, B[0], AC[0], H, B[1], AC[1])
    for a, b, c in zip(t1, t2, t3):
        if b:
            _p_isub(a, b)
        if c:
            _p_isub(a, c)
    return t1
