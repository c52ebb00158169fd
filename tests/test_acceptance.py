"""Acceptance criteria, one test per criterion, all at zero numerical
tolerance (every assertion is an exact identity of Gaussian-rational
objects).  Each test prints a pass line with its measured runtime next to
the desk-scale budget; budgets are informational, exactness is asserted.

Criterion 3 appears twice: the anomaly-aware reading (green) and the literal
"all 21 families vanish at degree bound 2" reading, which is mathematically
unattainable -- the three commuting concomitants N(I_i, J_i) are not
C-infinity-linear over the Dorfman bracket, because the Leibniz anomaly
[fA, B] = f[A,B] - (rho(B)f)A + 2<A,B>df cancels between the eight terms
only when the two structures anticommute.  The literal test is marked
xfail(strict=True) so the obstruction stays visible.
"""

import json
import re
import random
import time
from fractions import Fraction

import pytest

from gencliff.scalar import (GaussianRational, Poly, ScalarField,
                             standard_chart)
from gencliff.cartan import KForm
from gencliff.courant import Section
from gencliff.gcs import (EndField, bind_nijenhuis, bfield_transform,
                          real_nijenhuis, vanishes)
from gencliff.gcs import lemma_identities
from gencliff.clifford import (check_relations, induce, project,
                               theorem_1_1, verify_triple)
from gencliff.examples import (generalized_metric_example, hyperkahler_r4,
                               product_flip)
from gencliff import cli as cli_mod
from gencliff import twistor as tw
from gencliff import tduality as td
from tests import connection_oracle, tduality_oracle

R3 = standard_chart(3)
R4 = standard_chart(4)
GR = GaussianRational


def report_line(num, name, t0, budget):
    dt = time.perf_counter() - t0
    print(f"criterion {num:>2} ({name}): PASS in {dt:.1f}s "
          f"[budget {budget}]")


@pytest.fixture(scope="module")
def hk_verified_deg2():
    return verify_triple(hyperkahler_r4(), 2)


def test_criterion_01_courant_axioms():
    """Courant axioms of the Dorfman bracket on R^3, untwisted and
    H = dx1^dx2^dx3, for all smooth sections by the frame certificate.
    Budget < 60 s."""
    t0 = time.perf_counter()
    doc = {"chart": {"dim": 3},
           "flux": [{"indices": [1, 2, 3], "coeff": "1"}]}
    model = cli_mod.load_model(text=json.dumps(doc))
    status, witnesses, checks = cli_mod.suite_axioms(
        model, cli_mod.RunConfig(suites=["axioms"], max_degree=2))
    assert status == "pass", witnesses
    # per flux variant, with f = 6 frame sections on R^3: the Leibniz
    # symbols 2 f^2 n = 216, the cross terms f^2 n^2 = 324, the frame
    # brackets f^2 = 36, the symmetric part on f (f + 1) / 2 = 21 unordered
    # pairs, invariance on f * 21 = 126 triples, Jacobi on f^3 = 216 triples
    assert checks == 2 * (216 + 324 + 36 + 21 + 126 + 216)
    report_line(1, "Courant axioms", t0, "60 s")


def test_criterion_02_lemma_identity_suite():
    """Product/mixed Nijenhuis identities on 100 randomized polynomial
    section pairs (degree <= 2) for the anticommuting pair (I1, I2).
    Budget < 120 s."""
    t0 = time.perf_counter()
    T = hyperkahler_r4()
    rng = random.Random(20240817)

    def rnd_field():
        coeffs = {}
        for _ in range(3):
            m = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                m[rng.randrange(4)] += 1
            coeffs[tuple(m)] = GR(Fraction(rng.randint(-4, 4),
                                           rng.randint(1, 3)),
                                  Fraction(rng.randint(-2, 2)))
        return ScalarField.from_poly(Poly.from_coeffs(R4, coeffs))

    for _ in range(100):
        A = Section.from_components(R4, [rnd_field() for _ in range(8)])
        B = Section.from_components(R4, [rnd_field() for _ in range(8)])
        out = lemma_identities(T.I1, T.I2, A, B)
        assert len(out) == 3
        for name, lhs, rhs, equal in out:
            assert equal, name
    report_line(2, "lemma identities x100", t0, "120 s")


def test_criterion_03_theorem_1_1_suite(hk_verified_deg2):
    """Clifford relations exact; the 21 tensor families at degree bound 2:
    the 18 anticommuting-pair families vanish identically, the 3 commuting
    diagonal families match the exact Dorfman-Leibniz anomaly (and vanish on
    frame pairs).  Budget < 10 min."""
    t0 = time.perf_counter()
    T = hk_verified_deg2
    assert T.status.relations_ok and T.status.integrable
    rep = theorem_1_1(T, degree_bound=2)
    assert rep.status == "pass"
    assert len(rep.families) == 21
    for fam in rep.families:
        assert fam.vanished, fam.name
        assert fam.sample_count == (8 * 15) ** 2
    # frame-level vanishing of the commuting families (degree bound 0)
    rep0 = theorem_1_1(T, degree_bound=0, mode="strict")
    assert rep0.status == "pass"
    report_line(3, "theorem 1.1 suite (anomaly-aware)", t0, "10 min")


@pytest.mark.xfail(strict=True,
                   reason="mathematically unattainable: N(I_i, J_i) is not "
                          "tensorial over the Dorfman bracket for commuting "
                          "pairs; exactly N(I1,J1)(x4 d1, d1) = e4, the "
                          "closed-form Leibniz defect 2g(<u,v> W(df) "
                          "- <u,Wv> df), W = I J")
def test_criterion_03_literal_reading(hk_verified_deg2):
    """The verbatim criterion: all 21 families vanish at degree bound 2."""
    rep = theorem_1_1(hk_verified_deg2, degree_bound=2, mode="strict")
    assert rep.status == "pass"


def test_criterion_04_biquaternion_table(hk_verified_deg2):
    """Full multiplication table, G^2 = Id, projection identities, and
    G = the flat generalized metric, all exact.  Budget < 10 s."""
    t0 = time.perf_counter()
    T = hk_verified_deg2
    ind = induce(T)
    assert ind.table_ok
    proj = project(ind, T)
    assert proj.identities_ok
    one, zero = ScalarField.one(R4), ScalarField.zero(R4)
    ident = [[one if i == j else zero for j in range(4)] for i in range(4)]
    zeros = [[zero] * 4 for _ in range(4)]
    flat = EndField.from_blocks(R4, zeros, ident, ident, zeros)
    assert ind.G.entries_equal(flat)
    report_line(4, "bi-quaternion table", t0, "10 s")


def test_criterion_05_metric_not_integrable():
    """real Nijenhuis of the (Id, 0) metric: the documented witness
    A = x1 d1 + x1 e1 gives 4 x1 e1 - 4 x1 d1.  Budget < 1 s."""
    t0 = time.perf_counter()
    chart = standard_chart(2)
    G, _ = generalized_metric_example(2)
    x1 = ScalarField.variable(chart, 0)
    A = Section.frame(chart, 0).scale(x1) + Section.frame(chart, 2).scale(x1)
    out = real_nijenhuis(G, A, A)
    four = ScalarField.constant(chart, 4)
    want = Section.frame(chart, 2).scale(four * x1) - \
        Section.frame(chart, 0).scale(four * x1)
    assert out == want and not out.is_zero
    report_line(5, "Prop 2.9 negative result", t0, "1 s")


def test_criterion_06_rotation_layer():
    """T(z), S(z) exactly special orthogonal with the row cross-product
    identities at 25 pseudo-random Gaussian-rational points including
    0, 1, i; frozen values at 0, 1, i.  Budget < 5 s."""
    t0 = time.perf_counter()
    pts = tw.sample_points(25, seed=0)
    zs = {p.zeta1 for p in pts} | {p.zeta2 for p in pts}
    assert GR(0) in zs and GR(1) in zs and GR(0, 1) in zs
    for p in pts:
        for z in (p.zeta1, p.zeta2):
            M = tw.rot_T(z)           # invariants verified on construction
            assert M.rows[0] == tw.stereo_vec(z)
    assert tw.rot_T(GR(0)).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert tw.rot_T(GR(1)).rows == ((0, 0, -1), (0, 1, 0), (1, 0, 0))
    assert tw.rot_T(GR(0, 1)).rows == ((0, 1, 0), (-1, 0, 0), (0, 0, 1))
    report_line(6, "rotation layer", t0, "5 s")


def test_criterion_07_theorem_1_2():
    """rotate_family passes relations and the full 21-family integrability
    suite (degree bound 1) at 10 sample points, and equals the induced
    triple at the origin.  Budget < 15 min."""
    t0 = time.perf_counter()
    T = verify_triple(hyperkahler_r4(), 1)
    ind = induce(T)
    pts = tw.sample_points(10, seed=0)
    assert pts[0] == tw.TwistorPoint(GR(0), GR(0))
    for p in pts:
        R = tw.rotate_family(T, p)     # two construction paths cross-checked
        assert R.status.relations_ok
        if p.zeta1.is_zero and p.zeta2.is_zero:
            assert R.I1.entries_equal(ind.J1)
            assert R.I2.entries_equal(ind.J2)
            assert R.I3.entries_equal(ind.J3)
        Rv = verify_triple(R, 1)
        assert Rv.status.integrable, f"rotated generators at {p}"
        rep = theorem_1_1(Rv, degree_bound=1)
        assert rep.status == "pass", f"full suite at {p}"
    report_line(7, "theorem 1.2 rotations x10", t0, "15 min")


def test_criterion_08_twistor_differential_identities():
    """omega x c = dc, d Ihat = [Omega, Ihat]/2 (plus the (0,1)-part form),
    and dbar V - V ^ V = 0, as exact rational-function identities over the
    sphere chart.  Budget < 10 min."""
    t0 = time.perf_counter()
    T = verify_triple(hyperkahler_r4(), 0)
    conn = tw.connection_data(T)   # |c| = |d| = 1 inside
    # the unit-vector identity omega x c = dc from the public data
    S4 = conn.chart
    zero = ScalarField.zero(S4)
    for w in range(4):
        omega_w = tuple(f.coeffs.get((w,), zero) for f in conn.omega1)
        dc_w = tuple(x.diff(w) for x in conn.c)
        cross = (omega_w[1] * conn.c[2] - omega_w[2] * conn.c[1],
                 omega_w[2] * conn.c[0] - omega_w[0] * conn.c[2],
                 omega_w[0] * conn.c[1] - omega_w[1] * conn.c[0])
        assert cross == dc_w
    assert tw.check_dI_commutator(conn)
    assert tw.check_flatness(conn)
    report_line(8, "twistor differential identities", t0, "10 min")


def test_criterion_09_theorem_1_3():
    """The Nijenhuis tensor of Ihat (+) J vanishes exactly on all frame
    pairs of the 8-dimensional product chart, and the mixed-bracket identity
    holds on representative pairs (the Dorfman formula gives it for every
    section, so the oracle checks it, not ``theorem_1_3``).  Budget < 30 min
    symbolic, < 2 min sampled."""
    t0 = time.perf_counter()
    T = verify_triple(hyperkahler_r4(), 1)
    rep = tw.theorem_1_3(T, degree_bound=0)
    assert rep.status == "pass"
    assert rep.mode == "symbolic"
    assert rep.nijenhuis_checks == 16 * 16
    Z, base, rows = tw._twistor_numerators(T)
    assert connection_oracle.mixed_bracket_checks(Z, T.chart.dim, base, rows)
    t_sym = time.perf_counter() - t0
    t1 = time.perf_counter()
    rep2 = tw.theorem_1_3(T, degree_bound=0,
                          samples=tw.sample_points(5, seed=0))
    assert rep2.status == "pass" and rep2.mode == "sampled"
    t_samp = time.perf_counter() - t1
    print(f"criterion  9 (theorem 1.3): PASS symbolic {t_sym:.1f}s "
          f"[budget 30 min], sampled x5 {t_samp:.1f}s [budget 2 min]")


def test_criterion_10_tduality_suite():
    """TD-1 exact, TD-2 exact on invariant sections (degree <= 2), and the
    conjugation equalities of Props 5.2-5.4, Prop. 5.4 at every twistor
    point through the six sector generators.  Budget < 5 min."""
    t0 = time.perf_counter()
    T = verify_triple(hyperkahler_r4(), 1)
    phi = td.make_torus_duality(R4, 0)   # TD-1 verified on construction
    rep = td.check_intertwine(phi, 2)
    assert rep.ok
    # frame x (deg <= 2 monomials in the three non-dualized coordinates)
    assert rep.checks == (8 * 10) ** 2
    prep = td.props_5_2_to_5_4(phi, T, degree_bound=1)
    assert prep.ok, prep.witnesses()
    x2 = ScalarField.variable(R4, 1)
    A = Section.frame(R4, 1).scale(x2)
    B = Section.frame(R4, 6)
    assert tduality_oracle.lemma_5_1_instance(phi, T.I1, T.I2, A, B)
    report_line(10, "T-duality suite", t0, "5 min")


def test_criterion_11_product_flip_and_twisted_integrability():
    """product_flip passes relations with I3 != I1 I2, and its B-field
    transform (B = x1 dx3^dx5, dB != 0) passes twisted integrability at
    degree bound 1.  Budget < 10 min."""
    t0 = time.perf_counter()
    P = product_flip()
    rel = check_relations(P)
    assert rel.ok
    assert not (P.I1 @ P.I2).entries_equal(P.I3)
    chart = P.chart
    B = KForm(chart, 2, {(2, 4): ScalarField.variable(chart, 0)})
    from gencliff.cartan import exterior_d, is_closed
    assert not is_closed(B)
    gens = [bfield_transform(E, B) for E in P.generators]
    H = gens[0].flux
    assert H is not None and not H.is_zero and H.closed
    assert H.H == exterior_d(B)
    for i, E in enumerate(gens):
        rep = vanishes(bind_nijenhuis(E, f"N(I{i+1}~)"), 1)
        assert rep.vanished, rep.witnesses[:2]
    report_line(11, "Example 3.6/3.7 twisted integrability", t0, "10 min")


class TestCriterion12NegativeControls:
    """Every suite fails (exit 1, with a witness) on its corrupted fixture,
    and reports are byte-identical modulo timing.  Budget < 2 min."""

    def _corrupted_doc(self, extra=None):
        T = hyperkahler_r4()
        doc = {
            "chart": {"dim": 4, "coords": list(T.chart.names)},
            "triple": {name: [[str(f) for f in row] for row in E.entries]
                       for name, E in zip(
                           ("I1", "I2", "I3"),
                           (T.I1, T.I2, T.I1))},    # I3 corrupted to I1
        }
        if extra:
            doc.update(extra)
        return doc

    def _noninvariant_doc(self):
        T = hyperkahler_r4()
        B = KForm(T.chart, 2, {(1, 2): ScalarField.variable(T.chart, 0)})
        gens = [EndField(T.chart, bfield_transform(E, B).entries, None)
                for E in T.generators]
        return {
            "chart": {"dim": 4, "coords": list(T.chart.names)},
            "triple": {name: [[str(f) for f in row] for row in E.entries]
                       for name, E in zip(("I1", "I2", "I3"), gens)},
            "tduality": {"dual_index": 1},
        }

    def test_every_suite_fails_on_corruption(self):
        t0 = time.perf_counter()
        fixtures = {
            "relations": self._corrupted_doc(),
            "induced": self._corrupted_doc(),
            "theorem11": self._noninvariant_doc(),   # relations ok, not
                                                     # untwisted-integrable
            "rotations": self._corrupted_doc(),
            "twistor": self._corrupted_doc(),
            "flatness": self._corrupted_doc(),
            "theorem13": self._corrupted_doc(),
            "tduality": self._noninvariant_doc(),
            "axioms": {"chart": {"dim": 4},
                       "flux": [{"indices": [2, 3, 4], "coeff": "x1"}]},
        }
        assert set(fixtures) == set(cli_mod.SUITE_NAMES)
        for suite, doc in fixtures.items():
            model = cli_mod.load_model(text=json.dumps(doc))
            report, code = cli_mod.run(
                model, cli_mod.RunConfig(suites=[suite], max_degree=1,
                                         samples=2))
            assert code == 1, suite
            res = report["suites"][0]
            assert res["status"] == "fail", suite
            assert res["witnesses"], suite
        report_line("12a", "negative controls (9 suites)", t0, "2 min")

    def test_report_determinism_byte_for_byte(self, tmp_path):
        t0 = time.perf_counter()
        model = cli_mod.load_model(builtin="hyperkahler_r4")
        cfg = cli_mod.RunConfig(suites=["relations", "induced", "twistor"],
                                max_degree=1, samples=2, seed=7)
        paths = []
        for i in (0, 1):
            report, _ = cli_mod.run(model, cfg)
            p = tmp_path / f"r{i}.json"
            cli_mod.write_report(report, str(p), "json")
            paths.append(p)
        raw = [p.read_bytes() for p in paths]
        strip = [re.sub(rb'"seconds": [0-9.e-]+', b'"seconds": 0', r)
                 for r in raw]
        assert strip[0] == strip[1]
        report_line("12b", "report determinism", t0, "2 min")


def test_full_cli_run_exits_zero():
    """End-to-end: builtin hyperkahler_r4, every suite at max degree 2,
    exit 0."""
    t0 = time.perf_counter()
    model = cli_mod.load_model(builtin="hyperkahler_r4")
    cfg = cli_mod.RunConfig(suites=list(cli_mod.SUITE_NAMES), max_degree=2,
                            samples=3, seed=0)
    report, code = cli_mod.run(model, cfg)
    assert code == 0, [(s["name"], s["status"], s["witnesses"][:1])
                       for s in report["suites"] if s["status"] == "fail"]
    assert report["status"] == "pass"
    print(f"full CLI run (all suites): PASS in "
          f"{time.perf_counter() - t0:.1f}s")
