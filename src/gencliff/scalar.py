"""Exact scalar arithmetic: charts, Gaussian rationals, sparse polynomials,
normalized rational functions and the expression language.

Everything downstream (forms, sections, endomorphism fields) has ScalarField
entries, so this module fixes the global conventions:

* coefficients are Gaussian rationals (exact ``Fraction`` real and imaginary
  parts); purely real data simply has zero imaginary part;
* monomials are packed exponent vectors (one int, a fixed bit field per
  variable: the kernel layout of ``_core.pykernel``) ordered
  graded-lexicographically, which makes printed output and normal forms
  deterministic; the public API (``Poly.from_coeffs``, ``coeffs``,
  ``coeff``) speaks exponent tuples and packs or unpacks at the boundary;
* a ScalarField is a quotient num/den reduced by exact multivariate GCD with
  the denominator's leading coefficient normalized to 1, so structural
  equality of normalized forms decides mathematical equality.

The textual expression grammar (the only math text format in the system):

    expr     := ("+"|"-")? term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := base ("^" uint)?
    base     := uint | "i" | ident | "(" expr ")"

Whitespace is insignificant, ``i`` is the imaginary unit, and idents must be
chart coordinates.  (Signed rationals like ``-3/4`` come out of the leading
sign and ``/``.)
"""

from __future__ import annotations

from fractions import Fraction

from ._core import kernel as K
from . import polygcd as G


class ChartMismatchError(ValueError):
    pass


class ExprSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Chart:
    """An n-dimensional coordinate chart: just the coordinate names, at most
    ``K.MAX_VARS`` of them (the variables the kernel's monomial guard
    covers)."""

    __slots__ = ("names", "dim", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(names) > K.MAX_VARS:
            raise ValueError(f"chart has more than {K.MAX_VARS} "
                             "coordinates")
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        for nm in names:
            if not nm.isidentifier():
                raise ValueError(f"bad coordinate name {nm!r}")
        self.names = names
        self.dim = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown coordinate {name!r}") from None

    def __eq__(self, other):
        return isinstance(other, Chart) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"


def standard_chart(n, prefix="x"):
    return Chart(tuple(f"{prefix}{i + 1}" for i in range(n)))


class GaussianRational:
    """Exact complex rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _from_triple(cls, t):
        a, b, d = t
        return cls(Fraction(a, d), Fraction(b, d))

    def _triple(self):
        a, b = self.re, self.im
        d = a.denominator * b.denominator // _gcd(a.denominator, b.denominator)
        return K.c_make(a.numerator * (d // a.denominator),
                        b.numerator * (d // b.denominator), d)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    @property
    def is_real(self):
        return self.im == 0

    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return GaussianRational._coerce(other) * self.inverse()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = GaussianRational._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = " - " if self.im < 0 else " + "
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _imag_str(q):
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{q}*i"


def grlex_sorted(monomials):
    """Monomials in descending graded-lex order (the fixed global order)."""
    return sorted(monomials, key=K.grlex_key, reverse=True)


class Poly:
    """Sparse multivariate polynomial with Gaussian-rational coefficients.

    Treat instances as immutable; the term dict uses the kernel layout
    (packed monomial int -> coefficient triple) and never stores zeros.
    ``from_coeffs``, ``coeffs`` and ``coeff`` take and give exponent tuples.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms):
        self.chart = chart
        self.terms = terms

    @classmethod
    def zero(cls, chart):
        return cls(chart, {})

    @classmethod
    def one(cls, chart):
        return cls(chart, {0: K.C_ONE})

    @classmethod
    def constant(cls, chart, value):
        t = _as_gauss(value)._triple()
        if t == K.C_ZERO:
            return cls(chart, {})
        return cls(chart, {0: t})

    @classmethod
    def variable(cls, chart, i):
        if not 0 <= i < chart.dim:
            raise IndexError(f"coordinate index {i} out of range")
        return cls(chart, {K.var(i): K.C_ONE})

    @classmethod
    def from_coeffs(cls, chart, coeffs):
        """Build from {exponent tuple: GaussianRational/int/Fraction}."""
        terms = {}
        for m, v in coeffs.items():
            m = tuple(m)
            if len(m) != chart.dim:
                raise ValueError("exponent tuple has wrong length")
            t = _as_gauss(v)._triple()
            if t != K.C_ZERO:
                terms[K.mono(m)] = t
        return cls(chart, terms)

    def coeff(self, mono):
        mono = tuple(mono)
        if len(mono) != self.chart.dim or \
                not all(0 <= e <= K.EXP_LIMIT for e in mono):
            return GaussianRational(0)
        t = self.terms.get(K.mono(mono))
        return GaussianRational._from_triple(t) if t else GaussianRational(0)

    def coeffs(self):
        n = self.chart.dim
        return {K.exponents(m, n): GaussianRational._from_triple(t)
                for m, t in self.terms.items()}

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(m == 0 for m in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.coeff((0,) * self.chart.dim)

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatchError("polynomials on different charts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(self.chart, other)
        self._check(other)
        return Poly(self.chart, K.p_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(self.chart, other)
        self._check(other)
        return Poly(self.chart, K.p_sub(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Poly(self.chart, K.p_scale(self.terms, _as_gauss(other)._triple()))
        self._check(other)
        return Poly(self.chart, K.p_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __neg__(self):
        return Poly(self.chart, K.p_neg(self.terms))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Poly.one(self.chart)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def diff(self, i):
        if not 0 <= i < self.chart.dim:
            raise IndexError(f"coordinate index {i} out of range")
        return Poly(self.chart, K.p_diff(self.terms, i))

    def evaluate(self, point):
        """Evaluate at a tuple of GaussianRational (or int/Fraction) values."""
        pt = [_as_gauss(v) for v in point]
        if len(pt) != self.chart.dim:
            raise ValueError("point has wrong dimension")
        acc = GaussianRational(0)
        for m, t in self.terms.items():
            v = GaussianRational._from_triple(t)
            for e, x in zip(K.exponents(m, len(pt)), pt):
                for _ in range(e):
                    v = v * x
            acc = acc + v
        return acc

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.chart == other.chart
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.chart, tuple(sorted(self.terms.items()))))

    def __str__(self):
        return _poly_str(self)

    def __repr__(self):
        return f"Poly({self})"


def _as_gauss(v):
    if isinstance(v, GaussianRational):
        return v
    return GaussianRational(v)


class ScalarField:
    """Normalized rational function num/den over a chart.

    Construction always normalizes: the exact multivariate GCD of num and den
    is cancelled and den is scaled to have graded-lex leading coefficient 1.
    Two ScalarFields are mathematically equal iff they compare equal.
    """

    __slots__ = ("chart", "num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            raise TypeError("num must be a Poly")
        chart = num.chart
        if den is None:
            den = Poly.one(chart)
        if den.chart != chart:
            raise ChartMismatchError("num and den on different charts")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        nt, dt = _reduce(num.terms, den.terms)
        self.chart = chart
        self.num = Poly(chart, nt)
        self.den = Poly(chart, dt)

    @classmethod
    def _unchecked(cls, num, den):
        """Trusted fast path: num/den already normalized."""
        self = object.__new__(cls)
        self.chart = num.chart
        self.num = num
        self.den = den
        return self

    @classmethod
    def zero(cls, chart):
        return cls._unchecked(Poly.zero(chart), Poly.one(chart))

    @classmethod
    def one(cls, chart):
        return cls._unchecked(Poly.one(chart), Poly.one(chart))

    @classmethod
    def constant(cls, chart, value):
        return cls._unchecked(Poly.constant(chart, value), Poly.one(chart))

    @classmethod
    def variable(cls, chart, i):
        return cls._unchecked(Poly.variable(chart, i), Poly.one(chart))

    @classmethod
    def from_poly(cls, p):
        return cls._unchecked(p, Poly.one(p.chart))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        """True iff the denominator is 1 (a dict lookup; allocates nothing)."""
        t = self.den.terms
        return len(t) == 1 and t.get(0) == K.C_ONE

    @property
    def is_constant(self):
        return self.is_polynomial and self.num.is_constant

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant field")
        return self.num.constant_value()

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatchError("fields on different charts")

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            return other
        if isinstance(other, Poly):
            return ScalarField.from_poly(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return ScalarField.constant(self.chart, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        if self.is_polynomial and o.is_polynomial:
            return ScalarField._unchecked(self.num + o.num, Poly.one(self.chart))
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        # Henrici: with b = g*b', d = g*d' the sum is (a*d' + c*b')/(g*b'*d')
        # and only the factor g can cancel into the numerator.
        b, d = self.den.terms, o.den.terms
        g = _gcd_fast(b, d)
        bp = G.p_divexact(b, g)
        dp = G.p_divexact(d, g)
        numt = K.p_add(K.p_mul(self.num.terms, dp), K.p_mul(o.num.terms, bp))
        if not numt:
            return ScalarField.zero(self.chart)
        g2 = _gcd_fast(numt, g)
        numt = G.p_divexact(numt, g2)
        dent = K.p_mul(K.p_mul(G.p_divexact(g, g2), bp), dp)
        return _make_normalized(self.chart, numt, dent)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        if self.is_polynomial and o.is_polynomial:
            return ScalarField._unchecked(self.num * o.num, Poly.one(self.chart))
        if self.is_zero or o.is_zero:
            return ScalarField.zero(self.chart)
        # cancel cross gcds; inputs are reduced so the result is reduced
        g1 = _gcd_fast(self.num.terms, o.den.terms)
        g2 = _gcd_fast(o.num.terms, self.den.terms)
        numt = K.p_mul(G.p_divexact(self.num.terms, g1),
                       G.p_divexact(o.num.terms, g2))
        dent = K.p_mul(G.p_divexact(self.den.terms, g2),
                       G.p_divexact(o.den.terms, g1))
        return _make_normalized(self.chart, numt, dent)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        if o.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        return self * ScalarField(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __neg__(self):
        return ScalarField._unchecked(-self.num, self.den)

    def conjugate(self):
        """Complex conjugation of all coefficients."""
        cn = Poly(self.chart, {m: K.c_conj(c) for m, c in self.num.terms.items()})
        cd = Poly(self.chart, {m: K.c_conj(c) for m, c in self.den.terms.items()})
        return ScalarField(cn, cd)

    def diff(self, i):
        """Exact partial derivative (quotient rule, result normalized)."""
        if self.is_polynomial:
            return ScalarField._unchecked(self.num.diff(i), self.den)
        dn = self.num.diff(i) * self.den - self.num * self.den.diff(i)
        return ScalarField(dn, self.den * self.den)

    def evaluate(self, point):
        dv = self.den.evaluate(point)
        if dv.is_zero:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate(point) * dv.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_polynomial:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"ScalarField({self})"


def _is_const_poly(t):
    return len(t) == 1 and 0 in t


def _gcd_fast(p, q):
    """p_gcd with cheap exits for the common denominator patterns (equal,
    constant, or exactly dividing operands)."""
    if p == q:
        return G.p_monic(p)
    if _is_const_poly(p) or _is_const_poly(q):
        return {0: K.C_ONE}
    if G.p_divexact(q, p) is not None:
        return G.p_monic(p)
    if G.p_divexact(p, q) is not None:
        return G.p_monic(q)
    return G.p_gcd(p, q)


def _reduce(numt, dent):
    """Cancel gcd and make the denominator graded-lex monic."""
    if not numt:
        return {}, {0: K.C_ONE}
    if _is_const_poly(dent):
        g = {0: K.C_ONE}
    else:
        g = _gcd_fast(numt, dent)
    if g != {0: K.C_ONE}:
        numt = G.p_divexact(numt, g)
        dent = G.p_divexact(dent, g)
    _, lc = G.p_leading(dent)
    if lc != K.C_ONE:
        inv = K.c_inv(lc)
        numt = K.p_scale(numt, inv)
        dent = K.p_scale(dent, inv)
    return numt, dent


def _make_normalized(chart, numt, dent):
    """numt/dent already fully cancelled; only fix the monic convention."""
    if not numt:
        return ScalarField.zero(chart)
    _, lc = G.p_leading(dent)
    if lc != K.C_ONE:
        inv = K.c_inv(lc)
        numt = K.p_scale(numt, inv)
        dent = K.p_scale(dent, inv)
    return ScalarField._unchecked(Poly(chart, numt), Poly(chart, dent))


# Spec-level operation names.

def poly_diff(f, coord):
    """Exact partial derivative of a ScalarField."""
    return f.diff(coord)


def ratfunc_normalize(f):
    """Re-run normalization; idempotent on ScalarFields."""
    return ScalarField(f.num, f.den)


# ---------------------------------------------------------------------------
# Printing (canonical, deterministic) and parsing.

def _frac_str(q):
    return str(q)  # Fraction prints as n or n/d


def _coeff_prefix(t, mono_empty):
    """Render coefficient triple t in front of a monomial.

    Returns (sign, text) where text omits "1*" and uses parentheses for
    mixed complex coefficients so the output reparses.
    """
    g = GaussianRational._from_triple(t)
    if g.im == 0:
        sign = "-" if g.re < 0 else "+"
        q = abs(g.re)
        if q == 1 and not mono_empty:
            return sign, ""
        return sign, _frac_str(q)
    if g.re == 0:
        sign = "-" if g.im < 0 else "+"
        q = abs(g.im)
        if q == 1:
            return sign, "i"
        return sign, f"{_frac_str(q)}*i"
    return "+", f"({g})"


def _poly_str(p):
    if p.is_zero:
        return "0"
    chart = p.chart
    parts = []
    for m in grlex_sorted(p.terms):
        mono = "*".join(
            nm if e == 1 else f"{nm}^{e}"
            for nm, e in zip(chart.names, K.exponents(m, chart.dim)) if e
        )
        sign, coeff = _coeff_prefix(p.terms[m], mono == "")
        if coeff and mono:
            body = f"{coeff}*{mono}"
        else:
            body = coeff or mono
        parts.append((sign, body))
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class _Parser:
    """Recursive-descent parser of the expression grammar.

    Three input limits keep every document within bounded work and within
    the kernel's monomial layout; a breach is an ExprSyntaxError, like any
    other malformed expression:

      MAX_DEPTH     nesting depth of parentheses.  Each level costs four
                    stack frames, so the bound stays well below the
                    interpreter's recursion limit.
      MAX_EXPONENT  largest exponent e in b^e; the power is e products.
      K.EXP_LIMIT   largest exponent of a variable in any intermediate
                    value.  Nested powers multiply exponents, so
                    ((x1^64)^64)^64 passes MAX_EXPONENT at every power but
                    not this limit.
    """

    MAX_DEPTH = 100
    MAX_EXPONENT = 64

    def __init__(self, text, chart):
        self.text = text
        self.chart = chart
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ExprSyntaxError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self):
        try:
            f = self.expr()
        except K.ExponentLimitError:
            self.error(f"an exponent exceeds the limit {K.EXP_LIMIT}")
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return f

    def expr(self):
        neg = False
        if self.take("-"):
            neg = True
        else:
            self.take("+")
        acc = self.term()
        if neg:
            acc = -acc
        while True:
            if self.take("+"):
                acc = acc + self.term()
            elif self.take("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            if self.take("*"):
                acc = acc * self.factor()
            elif self.take("/"):
                d = self.factor()
                if d.is_zero:
                    raise ZeroDivisionError("division by the zero polynomial")
                acc = acc / d
            else:
                return acc

    def factor(self):
        b = self.base()
        if self.take("^"):
            start = self.pos
            e = self.uint()
            if e > self.MAX_EXPONENT:
                self.pos = start
                self.error(f"exponent {e} exceeds the limit "
                           f"{self.MAX_EXPONENT}")
            out = ScalarField.one(self.chart)
            for _ in range(e):
                out = out * b
            return out
        return b

    def uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an unsigned integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:      # more digits than int() converts
            self.pos = start
            self.error("integer literal too long")

    def base(self):
        ch = self.peek()
        if ch == "(":
            if self.depth >= self.MAX_DEPTH:
                self.error(f"parentheses nested deeper than "
                           f"{self.MAX_DEPTH}")
            self.pos += 1
            self.depth += 1
            f = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            self.depth -= 1
            return f
        if ch.isdigit():
            return ScalarField.constant(self.chart, self.uint())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                    self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == "i":
                return ScalarField.constant(self.chart, GaussianRational(0, 1))
            try:
                idx = self.chart.index(name)
            except KeyError:
                self.pos = start
                self.error(f"unknown coordinate {name!r}")
            return ScalarField.variable(self.chart, idx)
        self.error("expected a number, coordinate, 'i' or '('")


def parse_expr(text, chart):
    """Parse an expression into a normalized ScalarField."""
    return _Parser(text, chart).parse()
