# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled arithmetic kernel; a typed twin of pykernel with identical
semantics and data layout (see pykernel's module docstring).  Coefficients
stay arbitrary-precision Python ints, so results are bit-identical to the
pure backend."""

from math import gcd

C_ZERO = (0, 0, 1)
C_ONE = (1, 0, 1)
C_I = (0, 1, 1)


cpdef tuple c_make(a, b, d):
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


cpdef tuple c_add(tuple x, tuple y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return c_make(a1 + a2, b1 + b2, d1)
    return c_make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


cpdef tuple c_sub(tuple x, tuple y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return c_make(a1 - a2, b1 - b2, d1)
    return c_make(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


cpdef tuple c_neg(tuple x):
    return (-x[0], -x[1], x[2])


cpdef tuple c_conj(tuple x):
    return (x[0], -x[1], x[2])


cpdef tuple c_mul(tuple x, tuple y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return c_make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


cpdef tuple c_inv(tuple x):
    a, b, d = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    return c_make(a * d, -b * d, n)


cdef _p_iadd(dict acc, dict q):
    # acc += q in place; acc is a dict the caller owns (see pykernel._p_iadd)
    if not acc:
        acc.update(q)
        return
    for m, c in q.items():
        x = acc.get(m)
        if x is None:
            acc[m] = c
        else:
            s = c_add(<tuple>x, <tuple>c)
            if s[0] == 0 and s[1] == 0:
                del acc[m]
            else:
                acc[m] = s


cdef _p_isub(dict acc, dict q):
    for m, c in q.items():
        x = acc.get(m)
        if x is None:
            acc[m] = (-c[0], -c[1], c[2])
        else:
            s = c_sub(<tuple>x, <tuple>c)
            if s[0] == 0 and s[1] == 0:
                del acc[m]
            else:
                acc[m] = s


cpdef dict p_add(dict p, dict q):
    cdef dict out = dict(p)
    _p_iadd(out, q)
    return out


cpdef dict p_sub(dict p, dict q):
    cdef dict out = dict(p)
    if q:
        _p_isub(out, q)
    return out


cpdef dict p_neg(dict p):
    return {m: (-c[0], -c[1], c[2]) for m, c in p.items()}


cpdef dict p_scale(dict p, tuple c):
    if c[0] == 0 and c[1] == 0:
        return {}
    if c == C_ONE:
        return dict(p)
    return {m: c_mul(x, c) for m, x in p.items()}


cpdef dict p_mul(dict p, dict q):
    # term products summed unnormalized per output monomial, mixed
    # denominators merged over their LCM; one c_make per output term (see
    # pykernel.p_mul)
    cdef dict acc = {}
    cdef dict out = {}
    cdef Py_ssize_t i, n
    if not p or not q:
        return out
    for m1, c1 in p.items():
        a1, b1, d1 = <tuple>c1
        for m2, c2 in q.items():
            a2, b2, d2 = <tuple>c2
            n = len(<tuple>m1)
            mm = [0] * n
            for i in range(n):
                mm[i] = (<tuple>m1)[i] + (<tuple>m2)[i]
            m = tuple(mm)
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            x = acc.get(m)
            if x is None:
                acc[m] = (a, b, d)
            elif (<tuple>x)[2] == d:
                acc[m] = ((<tuple>x)[0] + a, (<tuple>x)[1] + b, d)
            else:
                xa, xb, xd = <tuple>x
                g = gcd(xd, d)
                u, v = d // g, xd // g
                acc[m] = (xa * u + a * v, xb * u + b * v, xd * u)
    for m, x in acc.items():
        a, b, d = <tuple>x
        if a or b:
            out[m] = c_make(a, b, d)
    return out


cpdef dict p_diff(dict p, Py_ssize_t i):
    cdef dict out = {}
    for m, c in p.items():
        e = (<tuple>m)[i]
        if e == 0:
            continue
        mm = (<tuple>m)[:i] + (e - 1,) + (<tuple>m)[i + 1:]
        cc = c_make(c[0] * e, c[1] * e, c[2])
        x = out.get(mm)
        if x is None:
            out[mm] = cc
        else:
            out[mm] = c_add(x, cc)
    return out


cpdef list sec_add(list A, list B):
    return [p_add(a, b) for a, b in zip(A, B)]


cpdef list sec_sub(list A, list B):
    return [p_sub(a, b) for a, b in zip(A, B)]


cpdef list sec_neg(list A):
    return [p_neg(a) for a in A]


cpdef bint sec_is_zero(list A):
    for a in A:
        if a:
            return False
    return True


cpdef list mat_apply_const(list M, list A):
    cdef list out = []
    cdef dict acc
    for row in M:
        acc = {}
        for j, c in <list>row:
            aj = A[j]
            if aj:
                _p_iadd(acc, p_scale(<dict>aj, <tuple>c))
        out.append(acc)
    return out


cpdef list mat_apply_poly(list M, list A):
    cdef list out = []
    cdef dict acc
    for row in M:
        acc = {}
        for j, pe in <list>row:
            aj = A[j]
            if aj:
                _p_iadd(acc, p_mul(<dict>pe, <dict>aj))
        out.append(acc)
    return out


cpdef list flux_contract(Py_ssize_t n, list X, list Y, dict H):
    cdef list out = [{} for _ in range(n)]
    cdef Py_ssize_t i, j, k
    for idx, h in H.items():
        i = (<tuple>idx)[0]
        j = (<tuple>idx)[1]
        k = (<tuple>idx)[2]
        xi, xj, xk = X[i], X[j], X[k]
        yi, yj, yk = Y[i], Y[j], Y[k]
        t = p_sub(p_mul(<dict>xi, <dict>yj), p_mul(<dict>xj, <dict>yi))
        if t:
            _p_iadd(<dict>out[k], p_mul(<dict>h, t))
        t = p_sub(p_mul(<dict>xk, <dict>yi), p_mul(<dict>xi, <dict>yk))
        if t:
            _p_iadd(<dict>out[j], p_mul(<dict>h, t))
        t = p_sub(p_mul(<dict>xj, <dict>yk), p_mul(<dict>xk, <dict>yj))
        if t:
            _p_iadd(<dict>out[i], p_mul(<dict>h, t))
    return out


cpdef list sec_jacobian(Py_ssize_t n, list A, diff=None):
    if diff is None:
        diff = p_diff
    return [[diff(a, t) for t in range(n)] if a else None for a in A]


cpdef list sec_dorfman(Py_ssize_t n, list A, list B, H=None, dA=None,
                       dB=None):
    cdef list out = [None] * (2 * n)
    cdef list hpart, jA, jB
    cdef Py_ssize_t i, j
    cdef dict acc, d
    jA = sec_jacobian(n, A) if dA is None else <list>dA
    jB = sec_jacobian(n, B) if dB is None else <list>dB
    for i in range(n):
        acc = {}
        dAi, dBi = jA[i], jB[i]
        for j in range(n):
            xj = A[j]
            if xj and dBi is not None:
                d = (<list>dBi)[j]
                if d:
                    _p_iadd(acc, p_mul(<dict>xj, d))
            yj = B[j]
            if yj and dAi is not None:
                d = (<list>dAi)[j]
                if d:
                    _p_isub(acc, p_mul(<dict>yj, d))
        out[i] = acc
    for i in range(n):
        acc = {}
        dBni, dAni = jB[n + i], jA[n + i]
        for j in range(n):
            xj = A[j]
            if xj and dBni is not None:
                d = (<list>dBni)[j]
                if d:
                    _p_iadd(acc, p_mul(<dict>xj, d))
            ej = B[n + j]
            if ej and jA[j] is not None:
                d = (<list>jA[j])[i]
                if d:
                    _p_iadd(acc, p_mul(<dict>ej, d))
            yj = B[j]
            if yj:
                if dAni is not None:
                    d = (<list>dAni)[j]
                    if d:
                        _p_isub(acc, p_mul(<dict>yj, d))
                if jA[n + j] is not None:
                    d = (<list>jA[n + j])[i]
                    if d:
                        _p_iadd(acc, p_mul(<dict>yj, d))
        out[n + i] = acc
    if H:
        hpart = flux_contract(n, A, B, <dict>H)
        for i in range(n):
            if hpart[i]:
                _p_isub(<dict>out[n + i], <dict>hpart[i])
    return out


cpdef list sec_jacobi_residual(Py_ssize_t n, tuple A, tuple B, tuple C, H,
                               tuple AB, tuple AC, tuple BC):
    # every operand is a (section, Jacobian) pair
    cdef list t1 = sec_dorfman(n, A[0], BC[0], H, A[1], BC[1])
    cdef list t2 = sec_dorfman(n, AB[0], C[0], H, AB[1], C[1])
    cdef list t3 = sec_dorfman(n, B[0], AC[0], H, B[1], AC[1])
    for a, b, c in zip(t1, t2, t3):
        if b:
            _p_isub(<dict>a, <dict>b)
        if c:
            _p_isub(<dict>a, <dict>c)
    return t1
