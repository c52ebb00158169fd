"""Exact multivariate polynomial GCD and division over the Gaussian rationals.

Works directly on the kernel polynomial layout (dict of dense exponent tuples
to coefficient triples).  The GCD pipeline is

  1. trivial cases (zero, constants, equal, exact divisor);
  2. a sound triviality probe: specialize all but one variable at fixed
     points that keep both leading coefficients alive; if the univariate
     images are coprime for every shared variable the GCD is 1 (images of a
     divisor divide the image GCD, and the leading-coefficient condition
     keeps its degree honest);
  3. subresultant polynomial remainder sequences in the least shared
     variable, with contents handled recursively.

Results are normalized so the graded-lex leading coefficient is 1, which
makes the GCD (and hence every normalized rational function) unique.
"""

from ._core import kernel as K

# deterministic evaluation points for the triviality probe
_PROBE_POINTS = ((2, 3, 5, 7, 11, 13, 17, 19),
                 (3, 5, 2, 11, 7, 17, 13, 23),
                 (5, 2, 7, 3, 13, 11, 19, 29))


def grlex_key(m):
    return (sum(m), m)


def p_leading(p):
    """(monomial, coeff) of the graded-lex leading term."""
    m = max(p, key=grlex_key)
    return m, p[m]


def p_monic(p):
    """Scale so the graded-lex leading coefficient is 1."""
    if not p:
        return {}
    _, c = p_leading(p)
    if c == K.C_ONE:
        return dict(p)
    return K.p_scale(p, K.c_inv(c))


def p_divexact(p, q):
    """Exact quotient p/q, or None if q does not divide p."""
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return {}
    mq, cq = p_leading(q)
    cq_inv = K.c_inv(cq)
    rem = dict(p)
    quot = {}
    while rem:
        mr, cr = p_leading(rem)
        me = tuple(a - b for a, b in zip(mr, mq))
        if any(e < 0 for e in me):
            return None
        cf = K.c_mul(cr, cq_inv)
        quot[me] = cf
        rem = K.p_sub(rem, K.p_mul({me: cf}, q))
    return quot


def _one_like(p):
    n = len(next(iter(p)))
    return {(0,) * n: K.C_ONE}


def _degree_in(p, v):
    return max((m[v] for m in p), default=0)


def _vars_in(p):
    out = set()
    for m in p:
        for i, e in enumerate(m):
            if e:
                out.add(i)
    return out


def _is_constant(p):
    return len(p) == 1 and not any(next(iter(p)))


# ---------------------------------------------------------------------------
# Univariate image machinery for the triviality probe.

def _univ_image(p, v, points):
    """Evaluate all variables except x_v at the probe points; returns
    {degree: coeff} or None if the v-leading coefficient dies."""
    dv = _degree_in(p, v)
    out = {}
    for m, c in p.items():
        scale = 1
        for i, e in enumerate(m):
            if i == v or not e:
                continue
            scale *= points[i % len(points)] ** e
        cc = K.c_make(c[0] * scale, c[1] * scale, c[2])
        e = m[v]
        prev = out.get(e)
        if prev is None:
            out[e] = cc
        else:
            s = K.c_add(prev, cc)
            if s == K.C_ZERO:
                del out[e]
            else:
                out[e] = s
    if out.get(dv) is None:
        return None
    return out


def _univ_gcd_degree(up, uq):
    """Degree of gcd of univariate images (Euclid over the Gaussian
    rationals)."""
    a, b = dict(up), dict(uq)
    while b:
        da, db = max(a), max(b)
        if da < db:
            a, b = b, a
            continue
        lb_inv = K.c_inv(b[db])
        while a and max(a) >= db:
            da = max(a)
            la = a.pop(da)
            f = K.c_mul(la, lb_inv)
            shift = da - db
            for e, c in b.items():
                if e == db:
                    continue
                t = K.c_mul(f, c)
                ee = e + shift
                prev = a.get(ee)
                s = K.c_sub(prev, t) if prev is not None else \
                    (-t[0], -t[1], t[2])
                if s == K.C_ZERO:
                    a.pop(ee, None)
                else:
                    a[ee] = s
        a, b = b, a
    return max(a) if a else 0


def _probably_coprime(p, q, shared):
    """Sound one-sided test: True only if gcd(p, q) = 1."""
    for v in sorted(shared):
        witnessed = False
        for points in _PROBE_POINTS:
            up = _univ_image(p, v, points)
            uq = _univ_image(q, v, points)
            if up is None or uq is None:
                continue
            if _univ_gcd_degree(up, uq) == 0:
                witnessed = True
            break
        if not witnessed:
            return False
    return True


# ---------------------------------------------------------------------------
# Subresultant PRS.

def _split_univ(p, v):
    out = {}
    for m, c in p.items():
        e = m[v]
        mm = m[:v] + (0,) + m[v + 1:]
        out.setdefault(e, {})[mm] = c
    return out


def _join_univ(u, v):
    out = {}
    for e, coeff in u.items():
        for m, c in coeff.items():
            out[m[:v] + (e,) + m[v + 1:]] = c
    return out


def _univ_content(u):
    g = {}
    for coeff in u.values():
        g = p_gcd(g, coeff)
        if _is_constant(g):
            return g
    return g


def _pseudo_rem_univ(ua, ub, v):
    """Pseudo-remainder prem(a, b) = lc(b)^(da-db+1) a mod b in x_v,
    in split-univariate form."""
    da, db = max(ua), max(ub)
    lb = ub[db]
    rem = {e: dict(c) for e, c in ua.items()}
    for _ in range(da - db + 1):
        if not rem:
            break
        dr = max(rem)
        if dr < db:
            # still multiply through to keep the prem normalization exact
            rem = {e: K.p_mul(c, lb) for e, c in rem.items()}
            continue
        lr = rem.pop(dr)
        new = {e: K.p_mul(c, lb) for e, c in rem.items()}
        for e, coeff in ub.items():
            if e == db:
                continue
            t = K.p_mul(lr, coeff)
            ee = e + dr - db
            cur = new.get(ee)
            s = K.p_sub(cur, t) if cur is not None else K.p_neg(t)
            if s:
                new[ee] = s
            else:
                new.pop(ee, None)
        rem = {e: c for e, c in new.items() if c}
    return rem


def _univ_scale_div(u, d):
    """Divide every coefficient exactly by the polynomial d."""
    out = {}
    for e, c in u.items():
        q = p_divexact(c, d)
        if q is None:
            raise ArithmeticError("subresultant divisor failed")
        if q:
            out[e] = q
    return out


def p_gcd(p, q):
    """Monic graded-lex-normalized GCD of two polynomials."""
    if not p:
        return p_monic(q)
    if not q:
        return p_monic(p)
    if p == q:
        return p_monic(p)
    if _is_constant(p) or _is_constant(q):
        return _one_like(p)
    if p_divexact(q, p) is not None:
        return p_monic(p)
    if p_divexact(p, q) is not None:
        return p_monic(q)
    vp, vq = _vars_in(p), _vars_in(q)
    shared = vp & vq
    if not shared:
        return _one_like(p)
    if _probably_coprime(p, q, shared):
        return _one_like(p)
    v = min(shared)
    if _degree_in(p, v) < _degree_in(q, v):
        p, q = q, p
    up, uq = _split_univ(p, v), _split_univ(q, v)
    cont_p, cont_q = _univ_content(up), _univ_content(uq)
    cont = p_gcd(cont_p, cont_q)
    a = _univ_scale_div(up, cont_p)
    b = _univ_scale_div(uq, cont_q)
    n_tmpl = _one_like(p)
    g = dict(n_tmpl)
    h = dict(n_tmpl)
    while True:
        da, db = max(a), max(b)
        delta = da - db
        r = _pseudo_rem_univ(a, b, v)
        if not r:
            prim = b
            break
        if max(r) == 0:
            prim = None      # gcd has x_v-degree 0; contents already split off
            break
        divisor = K.p_mul(g, _p_pow(h, delta))
        a, b = b, _univ_scale_div(r, divisor)
        g = a[max(a)]
        if delta == 0:
            # h unchanged
            pass
        elif delta == 1:
            h = dict(g)
        else:
            h = p_divexact(_p_pow(g, delta), _p_pow(h, delta - 1))
    if prim is None:
        return p_monic(cont)
    prim_cont = _univ_content(prim)
    prim = _univ_scale_div(prim, prim_cont)
    return p_monic(K.p_mul(cont, _join_univ(prim, v)))


def _p_pow(p, e):
    if e == 0:
        return _one_like(p)
    out = dict(p)
    for _ in range(e - 1):
        out = K.p_mul(out, p)
    return out
