"""Pure-Python arithmetic kernel: the exact polynomial, section and bracket
arithmetic under every verification sweep.

Data layout:

  coefficient  (a, b, d)   the Gaussian rational (a + b*i)/d with d > 0 and
                           gcd(a, b, d) = 1; exact arbitrary-precision ints.
                           d = 1 is a Gaussian integer.  Over every
                           fixed-denominator base of gcs but the unit, all
                           coefficients are Gaussian integers (gcs._PowerDen
                           folds the integer that clears them into the
                           base), so those paths run on d = 1 alone:
                           c_make returns (a, b, 1) with no gcd, and the
                           product accumulators add numerators over the one
                           denominator and never merge two (``_merge``).
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

  jacobian     list of 2n entries, one per section component: None when all
               of the component's partial derivatives are zero, else the
               list of its n plain partial derivatives (the derivative by
               x_t at index t).  Over a fixed-denominator base the
               numerators' plain partials are all a bracket needs: the power
               of the base enters through gcs._PowerDen.dorfman's rank-one
               corrections, never through a Jacobian entry.

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
    """Normalize (a + b*i)/d into canonical triple form (d may be signed).
    A Gaussian integer (d = 1) is canonical as it stands: no gcd."""
    if d == 1:
        return (a, b, 1)
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
    (a, b, d) with no gcd taken.  Term products over the stored
    denominator (always, when every coefficient is a Gaussian integer, as
    on a fixed-denominator base) add their numerators; a sum over
    different denominators merges over their LCM (``_merge``).  A real
    coefficient of p skips the cross terms with its zero imaginary part."""
    get = acc.get
    qi = q.items()
    for m1, (a1, b1, d1) in p.items():
        if b1:
            for m2, (a2, b2, d2) in qi:
                m = m1 + m2
                a = a1 * a2 - b1 * b2
                b = a1 * b2 + b1 * a2
                d = d1 * d2
                x = get(m)
                if x is None:
                    acc[m] = (a, b, d)
                elif x[2] == d:
                    acc[m] = (x[0] + a, x[1] + b, d)
                else:
                    acc[m] = _merge(x, a, b, d)
        else:
            for m2, (a2, b2, d2) in qi:
                m = m1 + m2
                a = a1 * a2
                b = a1 * b2
                d = d1 * d2
                x = get(m)
                if x is None:
                    acc[m] = (a, b, d)
                elif x[2] == d:
                    acc[m] = (x[0] + a, x[1] + b, d)
                else:
                    acc[m] = _merge(x, a, b, d)


def _p_mul_sub_acc(acc, p, q):
    """acc -= p * q in the accumulator of _p_mul_acc, on the same terms."""
    get = acc.get
    qi = q.items()
    for m1, (a1, b1, d1) in p.items():
        if b1:
            for m2, (a2, b2, d2) in qi:
                m = m1 + m2
                a = b1 * b2 - a1 * a2
                b = -(a1 * b2 + b1 * a2)
                d = d1 * d2
                x = get(m)
                if x is None:
                    acc[m] = (a, b, d)
                elif x[2] == d:
                    acc[m] = (x[0] + a, x[1] + b, d)
                else:
                    acc[m] = _merge(x, a, b, d)
        else:
            for m2, (a2, b2, d2) in qi:
                m = m1 + m2
                a = -a1 * a2
                b = -a1 * b2
                d = d1 * d2
                x = get(m)
                if x is None:
                    acc[m] = (a, b, d)
                elif x[2] == d:
                    acc[m] = (x[0] + a, x[1] + b, d)
                else:
                    acc[m] = _merge(x, a, b, d)


def _merge(x, a, b, d):
    """The accumulated (xa + xb*i)/xd plus (a + b*i)/d, unnormalized, over
    the LCM of the two denominators."""
    xa, xb, xd = x
    g = gcd(xd, d)
    u, v = d // g, xd // g
    return (xa * u + a * v, xb * u + b * v, xd * u)


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
            out[m] = (a, b, 1) if d == 1 else c_make(a, b, d)
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
    return not any(A)


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


def sec_jacobian(n, A):
    """Jacobian of a section: entry c is None when every partial of A[c] is
    zero (so when A[c] is zero or constant), else the list
    [p_diff(A[c], t) for t in range(n)].  Sweeps build each operand's
    Jacobian once and reuse it for every bracket the operand enters."""
    # A[c] has a nonzero partial iff it has a nonconstant monomial (a
    # nonzero packed key), so no p_diff is called on a constant component
    rows = ([p_diff(a, t) for t in range(n)] if any(a) else () for a in A)
    return [row if any(row) else None for row in rows]


def sec_dorfman(n, A, B, H=None, dA=None, dB=None):
    """Dorfman bracket of polynomial sections, optionally H-twisted.

    [X+xi, Y+eta] = [X,Y] + L_X eta - iota_Y d xi - iota_Y iota_X H with
      [X,Y]^i      = sum_j X^j dY^i/dx_j - Y^j dX^i/dx_j
      (L_X eta)_i  = sum_j X^j d eta_i/dx_j + eta_j dX^j/dx_i
      (i_Y dxi)_i  = sum_j Y^j (d xi_i/dx_j - d xi_j/dx_i)

    dA and dB are the Jacobians of A and of B (``sec_jacobian``); None means
    they are taken here.  Over a fixed-denominator base other than the unit,
    gcs._PowerDen.dorfman calls this with no flux on the numerators of
    P / m^j and Q / m^k and their plain Jacobians, and adds the power of m
    itself.

    Every term above but the H-twist is a component times one entry of dA
    or dB.  So when every entry of both Jacobians is None and H is empty
    the bracket is zero, and the zero section is returned with no product
    taken: for constant sections, the frame pairs of the symbol
    certificates.  Otherwise each output component sums its term products,
    over the nonzero components of the operands only, unnormalized in one
    accumulator, as ``p_dot`` does, and is normalized once.
    """
    if dA is None:
        dA = sec_jacobian(n, A)
    if dB is None:
        dB = sec_jacobian(n, B)
    if not H and not any(dA) and not any(dB):
        return [{} for _ in range(2 * n)]
    # component c: X^j dB^c/dx_j - Y^j dA^c/dx_j, and covector c = n + k
    # also eta_j dX^j/dx_k + Y^j d xi_j/dx_k; j runs over the nonzero X^j,
    # Y^j and eta_j only
    X = [(j, x) for j, x in enumerate(A[:n]) if x]
    Y = [(j, y) for j, y in enumerate(B[:n]) if y]
    E = [(j, B[n + j]) for j in range(n) if B[n + j]]
    out = []
    for c in range(2 * n):
        acc = {}
        dBc, dAc = dB[c], dA[c]
        if dBc is not None:
            for j, x in X:
                d = dBc[j]
                if d:
                    _p_mul_acc(acc, x, d)
        if dAc is not None:
            for j, y in Y:
                d = dAc[j]
                if d:
                    _p_mul_sub_acc(acc, y, d)
        if c >= n:
            k = c - n
            for j, e in E:
                dAj = dA[j]
                if dAj is not None and dAj[k]:
                    _p_mul_acc(acc, e, dAj[k])
            for j, y in Y:
                dAj = dA[n + j]
                if dAj is not None and dAj[k]:
                    _p_mul_acc(acc, y, dAj[k])
        out.append(_normalize_acc(acc) if acc else acc)
    if H:
        hpart = flux_contract(n, A, B, H)
        for i in range(n):
            if hpart[i]:
                _p_isub(out[n + i], hpart[i])
    return out


def sec_jacobi_residual(n, A, B, C, H, AB, AC, BC, bracket=None):
    """[A,[B,C]] - [[A,B],C] - [B,[A,C]] given the cached inner brackets.

    Every operand carries its Jacobian at index 1, so no derivative is taken
    here: the sweep builds each generator's and each cached bracket's
    Jacobian once.  bracket(X, Y) brackets two operands; None means
    sec_dorfman with the flux H on (section, Jacobian) pairs.  Over a
    fixed-denominator base the caller passes gcs._PowerDen.dorfman, on its
    (numerators, Jacobian, power) operands.
    """
    if bracket is None:
        def bracket(X, Y):
            return sec_dorfman(n, X[0], Y[0], H, X[1], Y[1])
    t1 = bracket(A, BC)
    t2 = bracket(AB, C)
    t3 = bracket(B, AC)
    for a, b, c in zip(t1, t2, t3):
        if b:
            _p_isub(a, b)
        if c:
            _p_isub(a, c)
    return t1
