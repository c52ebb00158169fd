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
are self-contained: each re-verifies what it depends on and fails with a
witness when anything is broken.  Reports are deterministic for a fixed
(input, max_degree) apart from the timing fields and the echoed config
(no suite reads --samples or --seed), and are written atomically.

Exit codes: 0 all suites pass, 1 any suite fails, 2 usage/input errors and
implementation limits (an exponent past the kernel's monomial field,
``K.ExponentLimitError``, is one even when a suite's products reach it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

try:        # the built-in hash module: hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256
except ImportError:         # Python < 3.12
    try:
        from _sha256 import sha256
    except ImportError:     # a build without the built-in module
        from hashlib import sha256

from . import __version__
from ._core import BACKEND, kernel as K
from .scalar import Chart, ExprSyntaxError, ScalarField, parse_expr
from .cartan import KForm
from .courant import (FluxForm, Section, dorfman, dorfman_twisted,
                      frame_sections)
from .gcs import EndField, _kernel_generators, generator_labels
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


def _parse_matrix(rows, chart, name):
    size = 2 * chart.dim
    if not isinstance(rows, list) or len(rows) != size or \
            any(not isinstance(r, list) or len(r) != size for r in rows):
        raise InputError(f"{name} must be a {size}x{size} matrix of "
                         "expression strings")
    out = []
    for row in rows:
        out.append([parse_expr(str(e), chart) for e in row])
    return out


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
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    _object(doc, "the input document")
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
        if not isinstance(coords, list) or \
                not all(isinstance(c, str) for c in coords):
            raise InputError("chart.coords must be a list of names")
        try:
            declared = Chart(tuple(coords))
        except ValueError as exc:
            raise InputError(f"bad chart: {exc}") from None
        if chart is None:
            chart = declared
        elif declared != chart:
            raise InputError("chart conflicts with the builtin structure")
    if chart is None:
        raise InputError("no chart: give \"chart\" or a builtin")
    flux = None
    if doc.get("flux"):
        coeffs = {}
        if not isinstance(doc["flux"], list):
            raise InputError("flux must be a list of terms")
        for item in doc["flux"]:
            indices = _object(item, "flux term")["indices"]
            if not isinstance(indices, list):
                raise InputError(f"bad flux indices {indices!r}")
            idx = tuple(_integer(i, "flux index") - 1 for i in indices)
            if len(idx) != 3 or any(not 0 <= i < chart.dim for i in idx):
                raise InputError(f"bad flux indices {item['indices']}")
            f = parse_expr(str(item["coeff"]), chart)
            form = KForm.basis(chart, idx).scale(f)
            coeffs = (KForm(chart, 3, coeffs) + form).coeffs
        flux = FluxForm(KForm(chart, 3, coeffs))
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


def _relations_prerequisite(model):
    """(T, None) with T the model's triple carrying its checked relations,
    or (None, result) when there is no triple or a relation fails."""
    gate = _need_triple(model)
    if gate:
        return None, gate
    rel = check_relations(model.triple)
    if not rel.ok:
        return None, ("fail", [f"relations prerequisite: {n}"
                               for n in rel.failures], len(rel.checks))
    return model.triple.with_status(TripleStatus(rel, ())), None


def suite_relations(model, cfg):
    gate = _need_triple(model)
    if gate:
        return gate
    rel = check_relations(model.triple)
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
    T, gate = _relations_prerequisite(model)
    if gate:
        return gate
    T = verify_triple(T)
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


def suite_twistor(model, cfg):
    T, gate = _relations_prerequisite(model)
    if gate:
        return gate
    if not all(E.is_constant for E in T.generators):
        return ("inconclusive",
                ["twistor suite needs a constant-coefficient triple"], 0)
    wit = []
    checks = 0
    try:
        conn = tw.connection_data(T)
        checks += 1
    except (ValueError, AssertionError) as exc:
        return ("fail", [f"connection data: {exc}"], 1)
    proj = project(induce(T), T)
    # both sides are bilinear in (a, b): the basis pairs decide every pair
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for a in basis:
        for b in basis:
            checks += 1
            if not tw.check_cross_commutator(a, b, proj):
                wit.append(f"cross-product commutator fails for {a}, {b}")
    checks += 1
    if not tw.check_dI_commutator(conn):
        wit.append("dIhat = [Omega, Ihat]/2 (or its (0,1)-part) fails")
    return ("pass" if not wit else "fail", wit[:10], checks)


def suite_flatness(model, cfg):
    T, gate = _relations_prerequisite(model)
    if gate:
        return gate
    if not all(E.is_constant for E in T.generators):
        return ("inconclusive",
                ["flatness suite needs a constant-coefficient triple"], 0)
    conn = tw.connection_data(T)
    ok = tw.check_flatness(conn)
    return ("pass" if ok else "fail",
            [] if ok else ["curvature of the (0,1) connection is nonzero"], 1)


def suite_theorem13(model, cfg):
    T, gate = _relations_prerequisite(model)
    if gate:
        return gate
    T = verify_triple(T)
    if not T.status.integrable:
        return ("fail", ["generator integrability prerequisite failed"],
                sum(r.sample_count for r in T.status.integrability))
    if not all(E.is_constant for E in T.generators):
        return ("inconclusive",
                ["theorem13 suite needs a constant-coefficient triple"], 0)
    rep = tw.theorem_1_3(T)
    wit = [" ".join(w) for w in rep.witnesses]
    return (rep.status, wit[:10], rep.nijenhuis_checks + 1)


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
    checks = 1          # TD-1 verified by construction
    for E in T.generators:
        if not phi.is_invariant_end(E):
            return ("fail",
                    [f"triple varies along the dualized coordinate "
                     f"x{k + 1}"], checks)
    irep = td.check_intertwine(phi)
    checks += irep.checks
    if not irep.ok:
        wit += [f"intertwine at ({w[0]}, {w[1]}) -> {w[2]}"
                for w in irep.witnesses]
    prep = td.props_5_2_to_5_4(phi, T)
    checks += len(prep.checks)
    if not prep.ok:
        wit += [f"failed: {name}" for name in prep.witnesses()]
    # Lemma 5.1 on a couple of invariant sections
    sec_pool = [s for s in frame_sections(model.chart)]
    x_ok = (k + 1) % model.chart.dim
    m = ScalarField.variable(model.chart, x_ok)
    A = sec_pool[0].scale(m)
    B = sec_pool[model.chart.dim]
    checks += 1
    if not td.lemma_5_1_instance(phi, T.I1, T.I2, A, B):
        wit.append("Lemma 5.1 transport identity failed")
    return ("pass" if not wit else "fail", wit[:10], checks)


def suite_axioms(model, cfg):
    """Courant axioms on the model chart: the Dorfman Jacobi identity
    (untwisted and flux-twisted) and the symmetric-part axiom
    [A,B] + [B,A] = D<A+B,A+B> - D<A,A> - D<B,B>, decided on the generators
    m * e_a (frame section e_a, monomial m of degree <= min(max_degree, 2)).

    Why the triples of total monomial degree <= 2 decide the Jacobi identity:
    the bracket is bilinear and each of its terms carries exactly one first
    derivative; the H-twist is C-infinity-bilinear.  So
        Jac(f e_a, g e_b, h e_c)
            = sum_{|al|+|be|+|ga| <= 2} d^al f  d^be g  d^ga h  S_{al,be,ga}
    for fixed polynomial sections S(a, b, c).  On monomials f = x^al,
    g = x^be, h = x^ga the term S_{al,be,ga} enters with the nonzero factor
    al! be! ga!, and every other nonzero term is an S with componentwise
    smaller multi-indices, so of lower total order: the system is
    triangular.  By induction on the total order, the triples of total degree
    <= 2 whose slot degrees are <= d vanish iff every S with slot orders
    <= d vanishes, iff the full sweep over every triple of degree <= d
    vanishes.  The verdict therefore equals that sweep's at every
    max_degree, and the witnesses are its witnesses restricted to the kept
    triples, in the same order.  For max_degree >= 2 every S is decided:
    the identity holds for all smooth sections.

    The symmetric-part defect is C-infinity-bilinear for the true bracket
    and of total order <= 1 for any first-order formula, so the unordered
    pairs of total degree <= 1 decide it.  Polarizing makes it bite even
    though every generator has <A,A> = 0.
    """
    chart = model.chart
    n = chart.dim
    degree = min(cfg.max_degree, 2)
    gens = _kernel_generators(chart, degree)
    labels = generator_labels(chart, degree)
    # each generator has one nonzero component holding one monomial
    deg = [K.degree(m) for A in gens for p in A for m in p]
    # upto[k]: generator indices of degree <= k, in sweep order
    upto = [[i for i, e in enumerate(deg) if e <= k] for k in range(3)]
    fluxes = [None]
    if model.flux is not None and not model.flux.is_zero:
        kf = model.flux.kernel_form()
        if kf is None:
            return ("inconclusive",
                    ["flux has non-polynomial coefficients"], 0)
        fluxes.append(kf)
    wit = []
    checks = 0
    # (section, Jacobian) operands: every derivative is taken once, for each
    # generator and for each cached pair bracket, not once per triple
    ops = [(A, K.sec_jacobian(n, A)) for A in gens]
    for kflux in fluxes:
        tag = "untwisted" if kflux is None else "twisted"
        # inner brackets of the pairs a kept triple reads: deg_i + deg_j <= 2
        pair = []
        for i, (A, dA) in enumerate(ops):
            row = []
            for j, (B, dB) in enumerate(ops):
                AB = None
                if deg[i] + deg[j] <= 2:
                    AB = K.sec_dorfman(n, A, B, kflux, dA, dB)
                    AB = (AB, K.sec_jacobian(n, AB))
                row.append(AB)
            pair.append(row)
        for i, A in enumerate(ops):
            for j in upto[2 - deg[i]]:
                B, AB = ops[j], pair[i][j]
                for l in upto[2 - deg[i] - deg[j]]:
                    res = K.sec_jacobi_residual(n, A, B, ops[l], kflux, AB,
                                                pair[i][l], pair[j][l])
                    checks += 1
                    if not K.sec_is_zero(res):
                        wit.append(f"Jacobi ({tag}) fails at "
                                   f"({labels[i]}, {labels[j]}, {labels[l]})")
                        if len(wit) >= 10:
                            return ("fail", wit, checks)
        # polarized symmetric-part axiom on this round's brackets, over the
        # unordered pairs i <= j with deg_i + deg_j <= 1
        for i in upto[1]:
            for j in upto[1 - deg[i]]:
                if j < i:
                    continue
                A, B = gens[i], gens[j]
                lhs = K.sec_add(pair[i][j][0], pair[j][i][0])
                rhs = K.sec_sub(K.sec_sub(
                    K.sec_pairing_differential(n, K.sec_add(A, B)),
                    K.sec_pairing_differential(n, A)),
                    K.sec_pairing_differential(n, B))
                checks += 1
                if lhs != rhs:
                    wit.append(f"[A,B] + [B,A] = 2D<A,B> fails at "
                               f"({labels[i]}, {labels[j]}) ({tag})")
                    if len(wit) >= 10:
                        return ("fail", wit, checks)
    return ("pass" if not wit else "fail", wit, checks)


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
        f = parse_expr(mult, chart) if mult else ScalarField.one(chart)
        if sgn < 0:
            f = -f
        base = Section.frame(chart, idx if kind == "d" else chart.dim + idx)
        total = total + base.scale(f)
    return total


def bracket_eval(chart_spec: str, a_text: str, b_text: str,
                 flux_spec: str | None = None) -> str:
    names = [t.strip() for t in chart_spec.split(",") if t.strip()]
    chart = Chart(tuple(names))
    A = parse_section(a_text, chart)
    B = parse_section(b_text, chart)
    if flux_spec:
        items = json.loads(flux_spec)
        coeffs = {}
        for item in items:
            idx = tuple(int(i) - 1 for i in item["indices"])
            f = parse_expr(str(item["coeff"]), chart)
            form = KForm.basis(chart, idx).scale(f)
            coeffs = (KForm(chart, 3, coeffs) + form).coeffs
        H = FluxForm(KForm(chart, 3, coeffs))
        out = dorfman_twisted(A, B, H)
    else:
        out = dorfman(A, B)
    return str(out)


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
                   help="monomial degree bound of the axioms suite's "
                        "generators, which bounds it only below 2 (its "
                        "degree-2 certificate decides every degree >= 2); "
                        "every other suite runs a certificate that holds "
                        "for all sections, and an integer degree bound of "
                        "the Nijenhuis or intertwine sweeps is opt-in "
                        "through the library only")
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
