"""Command-line front end: load structure specifications, run named
verification suites, emit machine-readable reports.

Input is a single JSON document:

    {
      "chart":   {"dim": 4, "coords": ["x1","x2","x3","x4"]},   # optional with builtin
      "builtin": "hyperkahler_r4",                # or explicit "triple"
      "triple":  {"I1": [[...expr strings...]], "I2": ..., "I3": ...},
      "flux":    [{"indices": [1,2,3], "coeff": "x4"}],         # 1-based, optional
      "tduality": {"dual_index": 1}                             # 1-based, optional
    }

Matrix entries and flux coefficients are expression strings in the scalar
grammar, so exact values survive serialization (no floats anywhere).  Suites
are self-contained: each checks what it depends on and fails with a witness
when anything is broken; the triple's relations are checked and its
induced algebra built once per model, and every suite reads them.  Every
suite runs a certificate that holds for all smooth sections, so no verdict
or count reads --max-degree, --samples or --seed: they are only parsed,
validated and echoed in the config.  Reports are deterministic for a fixed input apart from the timing
fields and that echo, and are written atomically.

Exit codes: 0 no suite failed (a suite may be inconclusive), 1 any suite
fails, 2 usage/input errors (a zero denominator in an expression among
them) and implementation limits (an exponent past the kernel's monomial
field, ``K.ExponentLimitError``, is one even when a suite's products reach
it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

try:        # the built-in hash module: hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256
except ImportError:         # Python < 3.12
    try:
        from _sha256 import sha256
    except ImportError:     # a build without the built-in module
        from hashlib import sha256

from . import __version__
from ._core import BACKEND, kernel as K
from .scalar import Chart, ExprSyntaxError, parse_expr
from .cartan import KForm
from .courant import FluxForm, Section, dorfman, dorfman_twisted
from .gcs import EndField, _PowerDen, generator_labels
from .clifford import (CliffordTriple, TripleStatus, check_relations,
                       induce, project, theorem_1_1, verify_triple)
from . import examples as builders
from . import twistor as tw
from . import tduality as td

SUITE_NAMES = ("relations", "induced", "theorem11", "rotations", "twistor",
               "flatness", "theorem13", "tduality", "axioms")


class InputError(ValueError):
    pass


@dataclass
class Model:
    chart: Chart
    triple: CliffordTriple | None
    flux: FluxForm | None
    dual_index: int | None
    digest: str
    builtin: str | None
    # the triple with its relations checked, made by the first suite that
    # needs it, and with its generator integrability once a suite verifies
    # it; every later suite of a run reuses it and, through its
    # ``with_status`` copies, the induced algebra, the projections and the
    # connection data
    checked: CliffordTriple | None = field(default=None, repr=False,
                                           compare=False)


@dataclass
class RunConfig:
    suites: list
    max_degree: int = 2
    samples: int = 10
    seed: int = 0
    output: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if not self.suites:
            raise InputError("suite list must not be empty")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise InputError(f"unknown suite {s!r}; "
                                 f"known: {', '.join(SUITE_NAMES)}")
        if self.max_degree < 0:
            raise InputError("max_degree must be >= 0")
        if self.samples < 0:
            raise InputError("samples must be >= 0")


def _expr(text, chart, what):
    """The ScalarField of an expression string; a zero denominator is an
    input error naming what holds the expression."""
    try:
        return parse_expr(str(text), chart)
    except ZeroDivisionError:
        raise InputError(f"{what}: zero denominator in {str(text)!r}") \
            from None


def _parse_matrix(rows, chart, name):
    size = 2 * chart.dim
    if not isinstance(rows, list) or len(rows) != size or \
            any(not isinstance(r, list) or len(r) != size for r in rows):
        raise InputError(f"{name} must be a {size}x{size} matrix of "
                         "expression strings")
    return [[_expr(e, chart, f"{name}[{i + 1}][{j + 1}]")
             for j, e in enumerate(row)] for i, row in enumerate(rows)]


def _json(raw, what):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None


def _object(value, what):
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object")
    return value


def _integer(value, what):
    """A JSON integer, or a string holding one, as an int."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{what} must be an integer, got {value!r}")


def _chart(coords):
    """The Chart of a list of coordinate names."""
    if not isinstance(coords, list) or \
            not all(isinstance(c, str) for c in coords):
        raise InputError("chart.coords must be a list of names")
    try:
        return Chart(tuple(coords))
    except ValueError as exc:
        raise InputError(f"bad chart: {exc}") from None


def _flux(terms, chart):
    """The FluxForm of a list of terms {"indices": [i, j, k], "coeff":
    expression}, with 1-based indices."""
    if not isinstance(terms, list):
        raise InputError("flux must be a list of terms")
    coeffs = {}
    for item in terms:
        indices = _object(item, "flux term")["indices"]
        if not isinstance(indices, list):
            raise InputError(f"bad flux indices {indices!r}")
        idx = tuple(_integer(i, "flux index") - 1 for i in indices)
        if len(idx) != 3 or any(not 0 <= i < chart.dim for i in idx):
            raise InputError(f"bad flux indices {indices}")
        f = _expr(item["coeff"], chart, f"flux coefficient at {indices}")
        form = KForm.basis(chart, idx).scale(f)
        coeffs = (KForm(chart, 3, coeffs) + form).coeffs
    return FluxForm(KForm(chart, 3, coeffs))


def load_model(path=None, builtin=None, text=None) -> Model:
    if text is None:
        if path is None and builtin is None:
            raise InputError("need --input or --builtin")
        if path is not None:
            with open(path, "rb") as fh:
                raw = fh.read()
        else:
            raw = json.dumps({"builtin": builtin}).encode()
    else:
        raw = text.encode() if isinstance(text, str) else text
    digest = "sha256:" + sha256(raw).hexdigest()
    doc = _object(_json(raw, "input"), "the input document")
    if builtin is not None:
        doc["builtin"] = builtin
    triple = None
    chart = None
    if doc.get("builtin"):
        if not isinstance(doc["builtin"], str):
            raise InputError("builtin must be a name")
        triple = builders.build_named(doc["builtin"])
        chart = triple.chart
    if doc.get("chart"):
        spec = _object(doc["chart"], "chart")
        coords = spec.get("coords")
        if coords is None:
            coords = [f"x{i + 1}"
                      for i in range(_integer(spec["dim"], "chart.dim"))]
        declared = _chart(coords)
        if chart is None:
            chart = declared
        elif declared != chart:
            raise InputError("chart conflicts with the builtin structure")
    if chart is None:
        raise InputError("no chart: give \"chart\" or a builtin")
    flux = _flux(doc["flux"], chart) if doc.get("flux") else None
    if doc.get("triple") and triple is None:
        spec = _object(doc["triple"], "triple")
        mats = []
        for name in ("I1", "I2", "I3"):
            if name not in spec:
                raise InputError(f"triple is missing {name}")
            mats.append(EndField(chart, _parse_matrix(spec[name], chart,
                                                      name), flux))
        triple = CliffordTriple(mats[0], mats[1], mats[2], flux)
    elif triple is not None and flux is not None and not flux.is_zero:
        triple = CliffordTriple(triple.I1.with_flux(flux),
                                triple.I2.with_flux(flux),
                                triple.I3.with_flux(flux), flux)
    dual_index = None
    if doc.get("tduality"):
        dual_index = _integer(_object(doc["tduality"], "tduality").get(
            "dual_index", 1), "tduality.dual_index") - 1
        if not 0 <= dual_index < chart.dim:
            raise InputError("tduality.dual_index out of range")
    return Model(chart, triple, flux, dual_index, digest, doc.get("builtin"))


# ---------------------------------------------------------------------------
# Suites.  Each returns (status, witnesses, checks).

def _need_triple(model):
    if model.triple is None:
        return ("inconclusive", ["no triple in the input"], 0)
    return None


def _checked_triple(model):
    """The model's triple carrying its relations report, checked once per
    model (``Model.checked``)."""
    if model.checked is None:
        model.checked = model.triple.with_status(
            TripleStatus(check_relations(model.triple), ()))
    return model.checked


def _verified_triple(model):
    """``Model.checked`` with its generator integrability verified
    (``verify_triple``), once per model."""
    if not model.checked.status.integrability:
        model.checked = verify_triple(model.checked)
    return model.checked


def _relations_prerequisite(model):
    """(T, None) with T the model's triple carrying its checked relations,
    or (None, result) when there is no triple or a relation fails."""
    gate = _need_triple(model)
    if gate:
        return None, gate
    T = _checked_triple(model)
    rel = T.status.relations
    if not rel.ok:
        return None, ("fail", [f"relations prerequisite: {n}"
                               for n in rel.failures], len(rel.checks))
    return T, None


def suite_relations(model, cfg):
    gate = _need_triple(model)
    if gate:
        return gate
    rel = _checked_triple(model).status.relations
    wit = [f"failed: {name}" for name in rel.failures]
    return ("pass" if rel.ok else "fail", wit, len(rel.checks))


def suite_induced(model, cfg):
    T, gate = _relations_prerequisite(model)
    if gate:
        return gate
    ind = induce(T)
    checks = 1
    if not ind.table_ok:
        return ("fail", ["bi-quaternion multiplication table"], checks)
    proj = project(ind, T)
    checks += 1
    if not proj.identities_ok:
        return ("fail", ["projection identities (G+-, I_i+-)"], checks)
    return ("pass", [], checks)


def suite_theorem11(model, cfg):
    _, gate = _relations_prerequisite(model)
    if gate:
        return gate
    T = _verified_triple(model)
    wit = []
    checks = 0
    for repn in T.status.integrability:
        checks += repn.sample_count
        for w in repn.witnesses:
            wit.append(f"{repn.name} at ({w[0]}, {w[1]}) -> {w[2]}")
    if not T.status.integrable:
        return ("fail", wit[:10], checks)
    srep = theorem_1_1(T)
    for fam in srep.families:
        checks += fam.sample_count
        for w in fam.witnesses:
            wit.append(f"{fam.name} at ({w[0]}, {w[1]}) -> {w[2]}")
    status = "pass" if srep.status == "pass" else srep.status
    return (status, wit[:10], checks)


def suite_rotations(model, cfg):
    T, gate = _relations_prerequisite(model)
    if gate:
        return gate
    rep = tw.theorem_1_2(T)
    wit = [f"{name} at ({a}, {b}) -> {v}"
           for name, a, b, v in rep.witnesses()]
    if rep.status != "pass" and not wit:
        wit = [rep.note]
    return (rep.status, wit[:10], sum(f.sample_count for f in rep.families))


def _connection_prerequisite(model, suite):
    """(conn, None) with conn the triple's ``twistor.connection_data``,
    built once per model (``T._algebra["connection"]``), or (None, result)
    when the triple fails a prerequisite or the connection data are
    refused."""
    T, gate = _relations_prerequisite(model)
    if gate:
        return None, gate
    if not all(E.is_constant for E in T.generators):
        return None, ("inconclusive", [f"{suite} suite needs a "
                                       "constant-coefficient triple"], 0)
    if "connection" not in T._algebra:
        try:
            T._algebra["connection"] = tw.connection_data(T)
        except (ValueError, AssertionError) as exc:
            return None, _refused(exc)
    return T._algebra["connection"], None


def _refused(exc):
    """The result of a suite whose triple the twistor layer refuses
    (``twistor._ihat``): one failed check, the connection data."""
    return ("fail", [f"connection data: {exc}"], 1)


def suite_twistor(model, cfg):
    """Two checks: the connection data (whose sector algebra implies the
    cross-product commutators, see ``twistor.ConnectionData``) and
    dIhat = [Omega, Ihat]/2."""
    conn, gate = _connection_prerequisite(model, "twistor")
    if gate:
        return gate
    if not tw.check_dI_commutator(conn):
        return ("fail", ["dIhat = [Omega, Ihat]/2 (or its (0,1)-part) fails"],
                2)
    return ("pass", [], 2)


def suite_flatness(model, cfg):
    conn, gate = _connection_prerequisite(model, "flatness")
    if gate:
        return gate
    ok = tw.check_flatness(conn)
    return ("pass" if ok else "fail",
            [] if ok else ["curvature of the (0,1) connection is nonzero"], 1)


def suite_theorem13(model, cfg):
    _, gate = _relations_prerequisite(model)
    if gate:
        return gate
    T = _verified_triple(model)
    if not T.status.integrable:
        return ("fail", ["generator integrability prerequisite failed"],
                sum(r.sample_count for r in T.status.integrability))
    if not all(E.is_constant for E in T.generators):
        return ("inconclusive",
                ["theorem13 suite needs a constant-coefficient triple"], 0)
    try:
        rep = tw.theorem_1_3(T)
    except (ValueError, AssertionError) as exc:
        return _refused(exc)
    wit = [" ".join(w) for w in rep.witnesses]
    return (rep.status, wit[:10], rep.nijenhuis_checks)


def suite_tduality(model, cfg):
    T, gate = _relations_prerequisite(model)
    if gate:
        return gate
    k = model.dual_index if model.dual_index is not None else 0
    if not (T.flux is None or T.flux.is_zero):
        return ("inconclusive",
                ["flat-torus duality implemented for zero flux"], 0)
    phi = td.make_torus_duality(model.chart, k)
    wit = []
    # TD-1 (orthogonality, verified by construction), the intertwine pairs
    # and the transport records; Lemma 5.1 follows from the intertwine
    # certificate and the conjugation (``td.check_intertwine``)
    checks = 1
    for E in T.generators:
        if not phi.is_invariant_end(E):
            return ("fail",
                    [f"triple varies along the dualized coordinate "
                     f"x{k + 1}"], checks)
    irep = td.check_intertwine(phi)
    checks += irep.sample_count
    wit += [f"intertwine at ({w[0]}, {w[1]}) -> {w[2]}"
            for w in irep.witnesses]
    prep = td.props_5_2_to_5_4(phi, T)
    checks += len(prep.checks)
    if not prep.ok:
        wit += [f"failed: {name}" for name in prep.witnesses()]
    return ("pass" if not wit else "fail", wit[:10], checks)


def suite_axioms(model, cfg):
    """Courant axioms of the Dorfman bracket on the model chart, untwisted
    and flux-twisted, as a certificate for all smooth sections.  It reads the
    frame e_a (d1..dn, e1..en), the degree-1 sections x_k e_a and their
    brackets; no check depends on ``cfg.max_degree``.

    Notation: rho(X + xi) = X, <X + xi, Y + eta> = (xi(Y) + eta(X)) / 2,
    Dg = dg, T(a, b) = [e_a, e_b], and
    Jac(A, B, C) = [A, [B, C]] - [[A, B], C] - [B, [A, C]].

    Structural fact, read off the bracket formula (``K.sec_dorfman``): each
    term is bilinear and carries at most one first derivative, and the
    H-twist is algebraic.  So, with L_k and R_k C-infinity-bilinear,

        [fA, B] = f[A, B] + sum_k (d_k f) L_k(A, B),
        [A, gB] = g[A, B] + sum_k (d_k g) R_k(A, B),

    and [fA, gB] has no (d_k f)(d_l g) term.

    Each round (untwisted, then twisted) checks, in this order:

      (L) R_k(e_a, e_b) = [e_a, x_k e_b] - x_k T(a, b) = (rho(e_a) x_k) e_b
          and L_k(e_a, e_b) = [x_k e_a, e_b] - x_k T(a, b)
          = -(rho(e_b) x_k) e_a + 2<e_a, e_b> dx^k;
      (X) [x_k e_a, x_l e_b] - x_l [x_k e_a, e_b] - x_k [e_a, x_l e_b]
          + x_k x_l T(a, b) = 0: no term differentiates both arguments,
          the part of the structural fact that no other check sees;
      (F) rho T(a, b) = 0, and T(a, b) = 0 when e_b = dx^j;
      (S) T(a, b) + T(b, a) = D<e_a + e_b, e_a + e_b> - D<e_a, e_a>
          - D<e_b, e_b> for a <= b;
      (I) <T(a, b), e_c> + <e_b, T(a, c)> = 0 for b <= c;
      (J) Jac(e_a, e_b, e_c) = 0 on the (2n)^3 frame triples.

    Proof that they decide the axioms for all smooth sections:

    1. Both sides of each identity in (L) are C-infinity-bilinear, so (L)
       holds for all A, B, and summing over k gives both Leibniz rules

           [A, gB] = g[A, B] + (rho(A) g) B,                        (L1)
           [fA, B] = f[A, B] - (rho(B) f) A + 2<A, B> Df.            (L2)

    2. With (L1), (L2), rho(Dg) = 0 and 2<A, Dg> = rho(A) g, each defect
       below is C-infinity-multilinear (expand it on fA, gB, hC: the
       first-order terms cancel), so the frames decide it:
       - anchor: rho[A, B] - [rho A, rho B]; on frames rho T(a, b), which
         (F) makes zero;
       - exact: [A, Dg] - D(rho(A) g) = sum_k (d_k g)([A, dx^k]
         - D(rho(A) x_k)), each bracket C-infinity-linear in A; on frames
         T(a, dx^k), which (F) makes zero;
       - invariance: rho(A)<B, C> - <[A, B], C> - <B, [A, C]>, symmetric in
         B, C; frames pair to constants, so on frames it is (I);
       - symmetric: [A, B] + [B, A] - 2D<A, B>; on frames it is (S).
       So [Dg, A] = -[A, Dg] + 2D<Dg, A> = -D(rho(A) g) + D(rho(A) g) = 0.

    3. (L1) gives
           Jac(A, B, hC) = h Jac(A, B, C) - ((rho[A, B] - [rho A, rho B]) h) C,
       and (L1), (L2) and the exact identity give
           Jac(A, gB, C) = g Jac(A, B, C) + ((rho[A, C] - [rho A, rho C]) g) B
                           + 2 (rho(A)<B, C> - <[A, B], C> - <B, [A, C]>) Dg.
       Both defects vanish, so Jac is C-infinity-linear in B and C.  Also
       Jac(A, B, C) + Jac(B, A, C) = -[[A, B] + [B, A], C]
       = -2[D<A, B>, C] = 0, so Jac(fA, B, C) = -Jac(B, fA, C)
       = f Jac(A, B, C).  Jac is C-infinity-trilinear, and the frame
       triples (J) decide it.  A non-closed flux fails there: on frames
       the twisted Jacobiator is a contraction of dH.

    With a flux the sections are numerators over powers of the base m, the
    LCM of the flux coefficients' denominators (``_PowerDen``; m = 1 for a
    polynomial flux): frames over m^0, the (L), (X) and frame brackets over
    m^1, Jacobi terms over m^2.  A section is zero iff its numerator is.
    The untwisted round runs over m = 1.
    """
    chart = model.chart
    rounds = [("untwisted", _PowerDen(chart), None)]
    if model.flux is not None and not model.flux.is_zero:
        coeffs = model.flux.H.coeffs
        base = _PowerDen.lcm(chart, list(coeffs.values()))
        rounds.append(("twisted", base, {idx: base.numerator(f)
                                         for idx, f in coeffs.items()}))
    wit = []
    checks = 0
    for tag, base, kflux in rounds:
        for failure in _axiom_checks(chart, base, kflux):
            checks += 1
            if failure is not None:
                name, at = failure
                wit.append(f"{name} ({tag}) fails at ({', '.join(at)})")
                if len(wit) >= 10:
                    return ("fail", wit, checks)
    return ("pass" if not wit else "fail", wit, checks)


def _axiom_checks(chart, base, kflux):
    """The checks of one ``suite_axioms`` round, in its order: None for each
    check that holds, (identity, argument labels) for each that fails.
    kflux holds the flux numerators over base.m (None for no flux)."""
    n = chart.dim
    size = 2 * n
    frames = generator_labels(chart, 0)
    x = [{K.var(k): K.C_ONE} for k in range(n)]

    def section(a, p):
        sec = [{} for _ in range(size)]
        sec[a] = p
        return sec

    def operand(P, k):
        return P, base.jacobian(P, k)

    def br(A, B):
        return K.sec_dorfman(n, A[0], B[0], kflux, A[1], B[1])

    def times(P, k):
        return [K.p_mul(p, x[k]) if p else {} for p in P]

    one = {0: K.C_ONE}
    m = base.mpow(1)
    e = [operand(section(a, one), 0) for a in range(size)]
    xe = [[operand(section(a, x[k]), 0) for a in range(size)]
          for k in range(n)]
    T = [[br(e[a], e[b]) for b in range(size)] for a in range(size)]
    # (L): right[a][b][k] = [e_a, x_k e_b], left[a][b][k] = [x_k e_a, e_b]
    right = [[[br(e[a], xe[k][b]) for k in range(n)] for b in range(size)]
             for a in range(size)]
    left = [[[br(xe[k][a], e[b]) for k in range(n)] for b in range(size)]
            for a in range(size)]
    for a in range(size):
        for b in range(size):
            for k in range(n):
                res = K.sec_sub(right[a][b][k], times(T[a][b], k))
                if a == k:                      # rho(e_a) x_k = 1
                    res = K.sec_sub(res, section(b, m))
                yield None if K.sec_is_zero(res) else (
                    "Leibniz rule [A, gB] = g[A, B] + (rho(A)g)B",
                    (frames[a], f"{chart.names[k]}*{frames[b]}"))
    for a in range(size):
        for b in range(size):
            for k in range(n):
                res = K.sec_sub(left[a][b][k], times(T[a][b], k))
                if b == k:                      # rho(e_b) x_k = 1
                    res = K.sec_add(res, section(a, m))
                if abs(a - b) == n:             # 2<e_a, e_b> = 1
                    res = K.sec_sub(res, section(n + k, m))
                yield None if K.sec_is_zero(res) else (
                    "Leibniz rule [fA, B] = f[A, B] - (rho(B)f)A + 2<A,B>Df",
                    (f"{chart.names[k]}*{frames[a]}", frames[b]))
    # (X)
    for a in range(size):
        for b in range(size):
            for k in range(n):
                for l in range(n):
                    res = br(xe[k][a], xe[l][b])
                    res = K.sec_sub(res, times(left[a][b][k], l))
                    res = K.sec_sub(res, times(right[a][b][l], k))
                    res = K.sec_add(res, times(times(T[a][b], k), l))
                    yield None if K.sec_is_zero(res) else (
                        "no (df)(dg) term in [fA, gB]",
                        (f"{chart.names[k]}*{frames[a]}",
                         f"{chart.names[l]}*{frames[b]}"))
    # (F)
    for a in range(size):
        for b in range(size):
            t = T[a][b] if b >= n else T[a][b][:n]
            yield None if K.sec_is_zero(t) else (
                "frame bracket rho[e_a, e_b] = 0, [e_a, dx^j] = 0",
                (frames[a], frames[b]))
    # (S), polarized
    for a in range(size):
        for b in range(a, size):
            lhs = K.sec_add(T[a][b], T[b][a])
            rhs = K.sec_sub(K.sec_sub(
                K.sec_pairing_differential(n, K.sec_add(e[a][0], e[b][0])),
                K.sec_pairing_differential(n, e[a][0])),
                K.sec_pairing_differential(n, e[b][0]))
            yield None if lhs == base.lift(rhs, 0, 1) else (
                "[A,B] + [B,A] = 2D<A,B>", (frames[a], frames[b]))
    # (I): <P, e_c> = P[c'] / 2 with c' = c + n mod 2n
    for a in range(size):
        for b in range(size):
            for c in range(b, size):
                s = K.p_add(T[a][b][(c + n) % size], T[a][c][(b + n) % size])
                yield None if not s else (
                    "invariance rho(A)<B,C> = <[A,B],C> + <B,[A,C]>",
                    (frames[a], frames[b], frames[c]))
    # (J)
    TT = [[operand(T[a][b], 1) for b in range(size)] for a in range(size)]
    for a in range(size):
        for b in range(size):
            for c in range(size):
                res = K.sec_jacobi_residual(n, e[a], e[b], e[c], kflux,
                                            TT[a][b], TT[a][c], TT[b][c])
                yield None if K.sec_is_zero(res) else (
                    "Jacobi", (frames[a], frames[b], frames[c]))


SUITES = {
    "relations": suite_relations,
    "induced": suite_induced,
    "theorem11": suite_theorem11,
    "rotations": suite_rotations,
    "twistor": suite_twistor,
    "flatness": suite_flatness,
    "theorem13": suite_theorem13,
    "tduality": suite_tduality,
    "axioms": suite_axioms,
}


def run(model: Model, cfg: RunConfig):
    """Run the configured suites; returns (report dict, exit code)."""
    results = []
    for name in cfg.suites:
        t0 = time.perf_counter()
        try:
            status, witnesses, checks = SUITES[name](model, cfg)
        except (ValueError, AssertionError, ZeroDivisionError) as exc:
            status, witnesses, checks = "fail", [f"error: {exc}"], 0
        results.append({
            "name": name,
            "status": status,
            "witnesses": list(witnesses),
            "checks": checks,
            "seconds": round(time.perf_counter() - t0, 6),
        })
    overall = "fail" if any(r["status"] == "fail" for r in results) else "pass"
    report = {
        "tool": {"name": "gencliff", "version": __version__,
                 "kernel": BACKEND},
        "input": {"digest": model.digest,
                  "builtin": model.builtin,
                  "chart": list(model.chart.names)},
        "config": {"suites": list(cfg.suites), "max_degree": cfg.max_degree,
                   "samples": cfg.samples, "seed": cfg.seed},
        "suites": results,
        "status": overall,
    }
    return report, (0 if overall == "pass" else 1)


def render_text(report):
    lines = [f"gencliff {report['tool']['version']} "
             f"(kernel: {report['tool']['kernel']})",
             f"input: {report['input']['digest']}"]
    for r in report["suites"]:
        lines.append(f"  [{r['status']:>12}] {r['name']:<10} "
                     f"checks={r['checks']} ({r['seconds']:.2f}s)")
        for w in r["witnesses"]:
            lines.append(f"      witness: {w}")
    lines.append(f"overall: {report['status']}")
    return "\n".join(lines) + "\n"


def write_report(report, path, fmt):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n" \
        if fmt == "json" else render_text(report)
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# The bracket calculator.

def parse_section(text: str, chart: Chart) -> Section:
    """Frame naming: d<i> = d/dx_i, e<i> = dx^i, with scalar-expression
    multipliers; terms joined by +/-."""
    import re
    s = text.strip()
    if not s:
        raise InputError("empty section expression")
    terms = []
    depth = 0
    cur = ""
    sign = 1
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif depth == 0 and ch == "-" and not cur.strip():
            sign = -sign
        elif depth == 0 and ch == "+" and not cur.strip():
            pass
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur))
    total = Section.zero(chart)
    pat = re.compile(r"^(?:(.*?)\*)?\s*([de])([0-9]+)\s*$", re.S)
    for sgn, term in terms:
        m = pat.match(term.strip())
        if not m:
            raise InputError(f"cannot parse section term {term.strip()!r} "
                             "(expected [scalar*]d<i> or [scalar*]e<i>)")
        mult, kind, num = m.groups()
        idx = int(num) - 1
        if not 0 <= idx < chart.dim:
            raise InputError(f"frame index out of range in {term.strip()!r}")
        f = _expr(mult or "1", chart, f"section term {term.strip()!r}")
        if sgn < 0:
            f = -f
        base = Section.frame(chart, idx if kind == "d" else chart.dim + idx)
        total = total + base.scale(f)
    return total


def bracket_eval(chart_spec: str, a_text: str, b_text: str,
                 flux_spec: str | None = None) -> str:
    """[A, B], twisted by the flux when flux_spec (a JSON list of flux
    terms, as in the input document) is given; the chart and the flux are
    checked as ``load_model`` checks them."""
    chart = _chart([t.strip() for t in chart_spec.split(",") if t.strip()])
    A = parse_section(a_text, chart)
    B = parse_section(b_text, chart)
    if flux_spec:
        return str(dorfman_twisted(A, B, _flux(_json(flux_spec, "--flux"),
                                               chart)))
    return str(dorfman(A, B))


# ---------------------------------------------------------------------------
# Entry point.

def build_parser():
    ap = argparse.ArgumentParser(
        prog="gencliff",
        description="Exact verification of rank-3 generalized Clifford "
                    "structures, their twistor family, and T-duality "
                    "transport.")
    sub = ap.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--input", help="JSON structure specification")
    v.add_argument("--builtin", help="named builtin structure "
                                     f"({', '.join(sorted(builders.BUILTIN_TRIPLES))})")
    v.add_argument("--suite", default="relations",
                   help="comma-separated suite list, or 'all'")
    v.add_argument("--max-degree", type=int, default=2,
                   help="accepted, validated and echoed in the report's "
                        "config only: every suite, axioms included, runs a "
                        "certificate that holds for all smooth sections, so "
                        "no verdict or count reads it; an integer degree "
                        "bound of the Nijenhuis or intertwine sweeps is "
                        "opt-in through the library only")
    v.add_argument("--samples", type=int, default=10,
                   help="accepted and echoed in the report's config only: "
                        "the rotations, twistor and tduality suites decide "
                        "every point of S^2 x S^2 from the six sector "
                        "generators, so no verdict or count reads it")
    v.add_argument("--seed", type=int, default=0,
                   help="accepted and echoed in the report's config only; "
                        "no verdict or count reads it")
    v.add_argument("--output", help="report file (atomic write); stdout if "
                                    "omitted")
    v.add_argument("--format", choices=("json", "text"), default="json")
    b = sub.add_parser("bracket", help="Dorfman bracket calculator")
    b.add_argument("--chart", required=True,
                   help="comma-separated coordinate names")
    b.add_argument("--a", required=True, help="first section expression")
    b.add_argument("--b", required=True, help="second section expression")
    b.add_argument("--flux", help="JSON flux list "
                                  '[{"indices":[i,j,k],"coeff":"expr"}]')
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "bracket":
            print(bracket_eval(args.chart, args.a, args.b, args.flux))
            return 0
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        if suites == ["all"]:
            suites = list(SUITE_NAMES)
        cfg = RunConfig(suites=suites, max_degree=args.max_degree,
                        samples=args.samples, seed=args.seed,
                        output=args.output, fmt=args.format)
        model = load_model(args.input, args.builtin)
        report, code = run(model, cfg)
        write_report(report, cfg.output, cfg.fmt)
        return code
    except (InputError, ExprSyntaxError, K.ExponentLimitError, OSError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
