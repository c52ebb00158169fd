"""CLI: input loading, suites, reports, exit codes, the bracket calculator."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gencliff.cli import (InputError, RunConfig, bracket_eval,
                          load_model, parse_section, run)
from gencliff._core import kernel as K
from gencliff.scalar import (ExprSyntaxError, GaussianRational, _Parser,
                             parse_expr, standard_chart)
from gencliff.examples import hyperkahler_r4

REPO = Path(__file__).resolve().parent.parent


def run_cli(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "gencliff.cli", *args],
                          capture_output=True, text=True, env=env,
                          cwd=cwd or REPO)
    return proc


def hk4b_document():
    """The seed-0 hk4b document of the benchmark's input generator
    (``perfbench/workloads.py``): hyperkahler_r4 under a constant B-field
    with six rational entries."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads.dumps(workloads.hk4b_document(0))


def triple_json(mutate=None):
    """Serialize the hyperkahler triple as an explicit-input document."""
    T = hyperkahler_r4()
    doc = {
        "chart": {"dim": 4, "coords": list(T.chart.names)},
        "triple": {
            name: [[str(f) for f in row] for row in E.entries]
            for name, E in zip(("I1", "I2", "I3"), T.generators)
        },
    }
    if mutate:
        mutate(doc)
    return doc


class TestLoadModel:
    def test_builtin(self):
        m = load_model(builtin="hyperkahler_r4")
        assert m.triple is not None and m.chart.dim == 4
        assert m.digest.startswith("sha256:")

    def test_digest_is_sha256_of_the_input(self):
        import hashlib
        text = json.dumps(triple_json())
        m = load_model(text=text)
        assert m.digest == \
            "sha256:" + hashlib.sha256(text.encode()).hexdigest()

    def test_openssl_hash_module_not_loaded(self):
        # the built-in sha256 keeps libcrypto out of the process
        code = ("import sys, gencliff.cli as c; "
                "c.load_model(builtin='hyperkahler_r4'); "
                "print('_hashlib' in sys.modules)")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_explicit_triple_roundtrip(self):
        doc = triple_json()
        m = load_model(text=json.dumps(doc))
        T = hyperkahler_r4()
        for a, b in zip(m.triple.generators, T.generators):
            assert a.entries_equal(b)

    def test_bad_json(self):
        with pytest.raises(InputError, match="line"):
            load_model(text="{nope")

    def test_bad_flux_indices(self):
        doc = {"chart": {"dim": 3},
               "flux": [{"indices": [1, 2, 9], "coeff": "1"}]}
        with pytest.raises(InputError, match="flux indices"):
            load_model(text=json.dumps(doc))

    def test_missing_everything(self):
        with pytest.raises(InputError, match="chart"):
            load_model(text="{}")

    def test_wrong_matrix_shape(self):
        doc = {"chart": {"dim": 2},
               "triple": {"I1": [["0"]], "I2": [["0"]], "I3": [["0"]]}}
        with pytest.raises(InputError, match="matrix"):
            load_model(text=json.dumps(doc))


class TestRunConfig:
    def test_empty_suites_rejected(self):
        with pytest.raises(InputError):
            RunConfig(suites=[])

    def test_unknown_suite_rejected(self):
        with pytest.raises(InputError, match="unknown suite"):
            RunConfig(suites=["nope"])

    def test_negative_degree_rejected(self):
        with pytest.raises(InputError):
            RunConfig(suites=["relations"], max_degree=-1)

    def test_negative_samples_rejected(self):
        # a report with "samples": -3 would break the schema's minimum 0
        with pytest.raises(InputError, match="samples"):
            RunConfig(suites=["relations"], samples=-1)
        proc = run_cli(["verify", "--builtin", "hyperkahler_r4", "--suite",
                        "relations", "--samples", "-3"])
        assert proc.returncode == 2
        assert "samples must be >= 0" in proc.stderr


class TestVerifyRuns:
    def test_relations_pass(self):
        m = load_model(builtin="hyperkahler_r4")
        report, code = run(m, RunConfig(suites=["relations"]))
        assert code == 0
        assert report["status"] == "pass"
        assert report["suites"][0]["checks"] == 9

    def test_corrupted_triple_fails_with_witness(self):
        doc = triple_json()
        doc["triple"]["I3"] = doc["triple"]["I1"]
        m = load_model(text=json.dumps(doc))
        report, code = run(m, RunConfig(suites=["relations"]))
        assert code == 1
        wit = report["suites"][0]["witnesses"]
        assert any("I1 I3" in w for w in wit)

    def test_missing_triple_inconclusive(self):
        m = load_model(text=json.dumps({"chart": {"dim": 3}}))
        report, code = run(m, RunConfig(suites=["relations"]))
        assert report["suites"][0]["status"] == "inconclusive"
        assert code == 0 and report["status"] == "pass"

    def test_axioms_on_bare_chart(self):
        doc = {"chart": {"dim": 3},
               "flux": [{"indices": [1, 2, 3], "coeff": "1"}]}
        m = load_model(text=json.dumps(doc))
        report, code = run(m, RunConfig(suites=["axioms"], max_degree=1))
        assert code == 0


class TestNoSampledVerdicts:
    def test_samples_and_seed_change_no_verdict_or_count(self):
        # the rotated family and its T-duality transport are decided for
        # every (zeta1, zeta2) from the six sector generators
        m = load_model(builtin="hyperkahler_r4")
        suites = ["rotations", "twistor", "tduality"]
        reports = []
        for samples, seed in ((1, 0), (9, 5)):
            report, code = run(m, RunConfig(suites=suites, samples=samples,
                                            seed=seed))
            assert code == 0
            reports.append([{k: v for k, v in res.items() if k != "seconds"}
                            for res in report["suites"]])
        assert reports[0] == reports[1]
        # rotations: 24 families x 28 frame pairs; twistor: connection data
        # and dIhat; tduality: TD-1, 28 intertwine pairs, 2 + 4 + 6
        # transport records
        assert [res["checks"] for res in reports[0]] == [672, 2, 41]


class TestTwistorEveryDimension:
    def test_product_flip_twistor_suites_pass(self):
        # n = 8: the certificate takes the 2 * (6 * 5 / 2) frame pairs
        # within the halves of the J-complex frame of the 12-coordinate
        # product chart
        proc = run_cli(["verify", "--builtin", "product_flip", "--suite",
                        "theorem13,twistor,flatness", "--max-degree", "0",
                        "--samples", "1"])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["status"] == "pass"
        assert [(res["status"], res["witnesses"])
                for res in report["suites"]] == [("pass", [])] * 3
        assert report["suites"][0]["checks"] == 2 * (6 * 5 // 2)

    def test_zero_flux_twistor_suites_pass(self):
        # a zero flux in the input is no flux on the product chart; the
        # certificate takes the 2 * (4 * 3 / 2) frame pairs within the
        # halves of the J-complex frame
        from tests.test_twistor import hk4b_triple
        T = hk4b_triple()
        doc = {"chart": {"dim": 4, "coords": list(T.chart.names)},
               "triple": {f"I{k + 1}": [[str(f) for f in row]
                                        for row in E.entries]
                          for k, E in enumerate(T.generators)},
               "flux": [{"indices": [1, 2, 3], "coeff": "0"}]}
        m = load_model(text=json.dumps(doc))
        report, code = run(m, RunConfig(
            suites=["twistor", "flatness", "theorem13"]))
        assert code == 0
        assert [res["status"] for res in report["suites"]] == ["pass"] * 3
        assert report["suites"][2]["checks"] == 2 * (4 * 3 // 2)


class TestConnectionSuites:
    def test_decided_without_endfield_products_on_one_connection_data(
            self, monkeypatch):
        # twistor and flatness read the sector algebra that project
        # verified, so no EndField is multiplied, and the connection data
        # are built once per model and shared by both suites
        from gencliff import twistor
        from gencliff.gcs import EndField
        model = load_model(text=hk4b_document())

        def refuse(self, other):
            raise AssertionError("EndField product")
        monkeypatch.setattr(EndField, "__matmul__", refuse)
        built = []
        connection_data = twistor.connection_data
        monkeypatch.setattr(twistor, "connection_data",
                            lambda T: built.append(T) or connection_data(T))
        report, code = run(model, RunConfig(suites=["twistor", "flatness"]))
        assert code == 0
        assert [(res["status"], res["witnesses"], res["checks"])
                for res in report["suites"]] == [("pass", [], 2),
                                                 ("pass", [], 1)]
        assert len(built) == 1


class TestExitCodes:
    def test_usage_error(self):
        proc = run_cli(["verify", "--suite", "nope", "--builtin",
                        "hyperkahler_r4"])
        assert proc.returncode == 2

    def test_missing_input(self):
        proc = run_cli(["verify", "--suite", "relations"])
        assert proc.returncode == 2

    def test_empty_suite_list(self):
        proc = run_cli(["verify", "--builtin", "hyperkahler_r4",
                        "--suite", ""])
        assert proc.returncode == 2

    def test_bad_expression_in_input(self, tmp_path):
        doc = {"chart": {"dim": 2},
               "triple": {"I1": [["x9"] * 4] * 4, "I2": [["0"] * 4] * 4,
                          "I3": [["0"] * 4] * 4}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        proc = run_cli(["verify", "--input", str(p), "--suite", "relations"])
        assert proc.returncode == 2
        assert "unknown coordinate" in proc.stderr

    def test_pass_run_end_to_end(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(["verify", "--builtin", "hyperkahler_r4", "--suite",
                        "relations,induced", "--output", str(out)])
        assert proc.returncode == 0
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        assert [s["name"] for s in report["suites"]] == ["relations",
                                                         "induced"]


def _zero_denominator_entry(doc):
    doc["triple"]["I2"][0][3] = "1/0"


MALFORMED_DOCUMENTS = {
    "top-level-array": [],
    "builtin-not-name": {"builtin": [1]},
    "dual-index-not-integer": {"chart": {"dim": 4},
                               "tduality": {"dual_index": "x"}},
    "dim-not-integer": {"chart": {"dim": 2.5}},
    "dim-not-a-number": {"chart": {"dim": "four"}},
    "flux-index-not-integer": {"chart": {"dim": 3},
                               "flux": [{"indices": [1, 2, 3.5],
                                         "coeff": "1"}]},
    "chart-not-object": {"chart": [4]},
    "flux-not-list": {"chart": {"dim": 3}, "flux": {"indices": [1, 2, 3]}},
    "tduality-not-object": {"chart": {"dim": 4}, "tduality": 2},
    "zero-dim": {"chart": {"dim": 0}},
    "zero-denominator-entry": triple_json(_zero_denominator_entry),
    "zero-denominator-flux": {"chart": {"dim": 3},
                              "flux": [{"indices": [1, 2, 3],
                                        "coeff": "1/(x1-x1)"}]},
    "flux-term-without-coeff": {"chart": {"dim": 3},
                                "flux": [{"indices": [1, 2, 3]}]},
    "flux-term-without-indices": {"chart": {"dim": 3},
                                  "flux": [{"indices": [1, 2, 3],
                                            "coeff": "1"}, {"coeff": "x1"}]},
    "flux-empty-object": {"chart": {"dim": 3}, "flux": {}},
    "flux-zero": {"chart": {"dim": 3}, "flux": 0},
    "flux-empty-string": {"chart": {"dim": 3}, "flux": ""},
    "flux-false": {"chart": {"dim": 3}, "flux": False},
}


# Expressions past the parser's input limits (scalar._Parser.MAX_DEPTH and
# MAX_EXPONENT, and the digits int() converts): a RecursionError traceback,
# an 11 s parse and a ValueError traceback before.  Nested powers multiply
# exponents past the kernel's monomial field (K.EXP_LIMIT) while each power
# stays within MAX_EXPONENT.
EXPRESSION_LIMIT_DOCUMENTS = {
    "nested-parentheses": {"chart": {"dim": 3},
                           "flux": [{"indices": [1, 2, 3],
                                     "coeff": "(" * 3000 + "x1" + ")" * 3000}]},
    "huge-exponent": {"chart": {"dim": 3},
                      "flux": [{"indices": [1, 2, 3], "coeff": "x1^3000000"}]},
    "long-integer-literal": {"chart": {"dim": 3},
                             "flux": [{"indices": [1, 2, 3],
                                       "coeff": "1" * 5000}]},
    "nested-powers-past-the-field": {"chart": {"dim": 3},
                                     "flux": [{"indices": [1, 2, 3],
                                               "coeff": "((x1^64)^64)^64"}]},
}


# x1^EXP_LIMIT (7*64^2 + 63*64 + 63) in powers within MAX_EXPONENT
TOP_POWER = "((x1^7)^64)^64*(x1^63)^64*x1^63"


class TestMalformedInput:
    @staticmethod
    def _exits_2(doc, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        proc = run_cli(["verify", "--input", str(p), "--suite", "relations"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("doc", list(MALFORMED_DOCUMENTS.values()),
                             ids=list(MALFORMED_DOCUMENTS))
    def test_input_error_and_exit_2(self, doc, tmp_path):
        with pytest.raises(InputError):
            load_model(text=json.dumps(doc))
        self._exits_2(doc, tmp_path)

    @pytest.mark.parametrize("name,term,key", [
        ("flux-term-without-coeff", 1, "coeff"),
        ("flux-term-without-indices", 2, "indices")])
    def test_flux_term_without_a_key_names_it(self, name, term, key):
        with pytest.raises(InputError,
                           match=f"flux term {term} has no '{key}'"):
            load_model(text=json.dumps(MALFORMED_DOCUMENTS[name]))

    @pytest.mark.parametrize("value", [{}, 0, "", False],
                             ids=["object", "zero", "string", "false"])
    def test_flux_present_but_not_a_list(self, value):
        # only a list of terms or null is a flux; [] and null are none
        with pytest.raises(InputError, match="flux must be a list of terms"):
            load_model(text=json.dumps({"chart": {"dim": 3}, "flux": value}))
        for none in ([], None):
            assert load_model(text=json.dumps(
                {"chart": {"dim": 3}, "flux": none})).flux is None

    def test_zero_denominator_names_the_entry(self):
        # the parser keeps raising ZeroDivisionError; load_model names
        # where the expression sits
        with pytest.raises(InputError,
                           match=r"I2\[1\]\[4\]: zero denominator"):
            load_model(text=json.dumps(
                MALFORMED_DOCUMENTS["zero-denominator-entry"]))
        with pytest.raises(InputError,
                           match=r"flux coefficient at \[1, 2, 3\]"):
            load_model(text=json.dumps(
                MALFORMED_DOCUMENTS["zero-denominator-flux"]))

    @pytest.mark.parametrize("doc", list(EXPRESSION_LIMIT_DOCUMENTS.values()),
                             ids=list(EXPRESSION_LIMIT_DOCUMENTS))
    def test_expression_limit_and_exit_2(self, doc, tmp_path):
        with pytest.raises(ExprSyntaxError, match="limit|deeper|too long"):
            load_model(text=json.dumps(doc))
        self._exits_2(doc, tmp_path)

    def test_limits_admit_the_boundary(self):
        depth, exp = _Parser.MAX_DEPTH, _Parser.MAX_EXPONENT
        R3 = standard_chart(3)
        nested = "(" * depth + "x1" + ")" * depth
        assert parse_expr(nested, R3) == parse_expr("x1", R3)
        assert parse_expr(f"x1^{exp}", R3).num.coeffs() == {
            (exp, 0, 0): GaussianRational(1)}
        # the largest exponent the monomial field holds, reached by nested
        # powers, parses; one more factor is past it
        top = TOP_POWER
        assert parse_expr(top, R3).num.coeffs() == {
            (K.EXP_LIMIT, 0, 0): GaussianRational(1)}
        with pytest.raises(ExprSyntaxError, match=f"limit {K.EXP_LIMIT}"):
            parse_expr(top + "*x2*x1", R3)

    def test_exponent_limit_inside_a_suite_exits_2(self, tmp_path):
        # the flux coefficient is admitted, but the axioms suite multiplies
        # it by a degree-1 generator: the kernel's guard stops the product
        # with its limit named, and the run exits 2 instead of reporting a
        # mathematical failure
        doc = {"chart": {"dim": 3},
               "flux": [{"indices": [1, 2, 3], "coeff": TOP_POWER}]}
        model = load_model(text=json.dumps(doc))
        with pytest.raises(K.ExponentLimitError):
            run(model, RunConfig(suites=["axioms"], max_degree=1))
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        proc = run_cli(["verify", "--input", str(p), "--suite", "axioms",
                        "--max-degree", "1"])
        assert proc.returncode == 2
        assert proc.stderr == (f"error: a monomial exponent exceeds the "
                               f"limit {K.EXP_LIMIT}\n")


class TestReportShape:
    def _schema(self):
        return json.loads((REPO / "docs" / "report_schema.json").read_text())

    def test_report_matches_schema(self):
        m = load_model(builtin="hyperkahler_r4")
        report, _ = run(m, RunConfig(suites=["relations"]))
        schema = self._schema()
        for key, typ in (("tool", dict), ("input", dict), ("config", dict),
                         ("suites", list), ("status", str)):
            assert key in schema["properties"]
            assert isinstance(report[key], typ)
        suite_props = schema["properties"]["suites"]["items"]["properties"]
        for s in report["suites"]:
            assert set(s) == set(suite_props)
            assert s["status"] in suite_props["status"]["enum"]
        assert report["status"] in schema["properties"]["status"]["enum"]

    def test_determinism_modulo_timing(self):
        m = load_model(builtin="hyperkahler_r4")
        cfg = RunConfig(suites=["relations", "induced"], seed=3)
        r1, _ = run(m, cfg)
        r2, _ = run(m, cfg)
        for r in (r1, r2):
            for s in r["suites"]:
                s["seconds"] = 0.0
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2,
                                                            sort_keys=True)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        m = load_model(builtin="hyperkahler_r4")
        report, _ = run(m, RunConfig(suites=["relations"]))
        from gencliff.cli import write_report
        out = tmp_path / "r.json"
        write_report(report, str(out), "json")
        assert out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


# (--chart, --flux) of `gencliff bracket --a d2 --b d3`
MALFORMED_BRACKET_FLAGS = {
    "flux-index-9": ("x1,x2,x3", '[{"indices":[9,2,3],"coeff":"1"}]'),
    "flux-index-0": ("x1,x2,x3", '[{"indices":[0,2,3],"coeff":"1"}]'),
    "two-index-flux": ("x1,x2,x3", '[{"indices":[2,3],"coeff":"1"}]'),
    "flux-not-list": ("x1,x2,x3", '{"a":1}'),
    "flux-not-json": ("x1,x2,x3", "[indices"),
    "flux-zero-denominator": ("x1,x2,x3",
                              '[{"indices":[1,2,3],"coeff":"1/(x1-x1)"}]'),
    "chart-repeated": ("x,x", '[{"indices":[1,2,1],"coeff":"1"}]'),
    "chart-empty": ("", '[{"indices":[1,2,3],"coeff":"1"}]'),
    "flux-term-without-coeff": ("x1,x2,x3", '[{"indices":[1,2,3]}]'),
    "flux-term-without-indices": ("x1,x2,x3", '[{"coeff":"1"}]'),
}


class TestBracketCalculator:
    def test_spec_examples(self):
        assert bracket_eval("x1,x2,x3", "d1", "x1*e2") == "e2"
        assert bracket_eval("x1,x2,x3", "d1", "d2") == "0"
        assert bracket_eval(
            "x1,x2,x3", "d1", "d2",
            '[{"indices":[1,2,3],"coeff":"1"}]') == "-e3"

    def test_compound_sections(self):
        out = bracket_eval("x1,x2", "d1 + x1*e1", "d1 + x1*e1")
        assert out == "e1"
        out2 = bracket_eval("x1,x2", "x1*d2 - d1", "e2")
        assert out2 == "e1"       # L_{x1 d2 - d1}(dx2) = d(x1) = dx1

    def test_parse_section_errors(self):
        chart = standard_chart(2)
        with pytest.raises(InputError):
            parse_section("d9", chart)
        with pytest.raises(InputError):
            parse_section("x1", chart)

    def test_cli_bracket(self):
        proc = run_cli(["bracket", "--chart", "x1,x2,x3", "--a", "d1",
                        "--b", "x1*e2"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "e2"

    @pytest.mark.parametrize("chart,flux",
                             list(MALFORMED_BRACKET_FLAGS.values()),
                             ids=list(MALFORMED_BRACKET_FLAGS))
    def test_malformed_flags_exit_2(self, chart, flux):
        # the chart and flux checks of load_model; flux index 0 must not
        # wrap to the last coordinate
        with pytest.raises(InputError):
            bracket_eval(chart, "d2", "d3", flux)
        proc = run_cli(["bracket", "--chart", chart, "--a", "d2", "--b", "d3",
                        "--flux", flux])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr and not proc.stdout


class TestNegativeControls:
    """Each suite must fail, with a witness, on a corrupted fixture."""

    def _run(self, doc, suite, max_degree=1, samples=2):
        m = load_model(text=json.dumps(doc))
        report, code = run(m, RunConfig(suites=[suite],
                                        max_degree=max_degree,
                                        samples=samples))
        return report["suites"][0], code

    def corrupted_triple(self):
        doc = triple_json()
        doc["triple"]["I3"] = doc["triple"]["I1"]
        return doc

    @pytest.mark.parametrize("suite", ["relations", "induced", "rotations",
                                       "twistor", "flatness", "theorem13"])
    def test_relation_corruption_fails_suite(self, suite):
        res, code = self._run(self.corrupted_triple(), suite)
        assert code == 1
        assert res["status"] == "fail"
        assert res["witnesses"]

    def test_theorem11_noninteg_corruption(self):
        # relations hold but the generators are not untwisted-integrable
        from gencliff.cartan import KForm
        from gencliff.gcs import EndField, bfield_transform
        from gencliff.scalar import ScalarField
        chart = standard_chart(6)
        J6 = [[0] * 6 for _ in range(6)]
        for blk in (0, 2, 4):
            J6[blk + 1][blk] = 1
            J6[blk][blk + 1] = -1
        from gencliff.examples import diag_type
        E = diag_type(tuple(tuple(r) for r in J6), chart)
        B = KForm(chart, 2, {(2, 4): ScalarField.variable(chart, 0)})
        Et = EndField(chart, bfield_transform(E, B).entries, None)
        # a rank-1-style corrupted "triple" reusing the same structure would
        # break relations; instead check the generator-integrability stage
        from gencliff.gcs import bind_nijenhuis, vanishes
        rep = vanishes(bind_nijenhuis(Et), 1, max_witnesses=2)
        assert not rep.vanished

    def test_tduality_noninvariant_fails(self):
        # a B-field transform injects x1-dependence while keeping exact
        # Clifford relations; dualizing x1 must then fail with a diagnostic
        from gencliff.cartan import KForm
        from gencliff.gcs import EndField, bfield_transform
        from gencliff.scalar import ScalarField
        T = hyperkahler_r4()
        B = KForm(T.chart, 2, {(1, 2): ScalarField.variable(T.chart, 0)})
        gens = [EndField(T.chart, bfield_transform(Ei, B).entries, None)
                for Ei in T.generators]
        doc = {
            "chart": {"dim": 4, "coords": list(T.chart.names)},
            "triple": {name: [[str(f) for f in row] for row in E.entries]
                       for name, E in zip(("I1", "I2", "I3"), gens)},
            "tduality": {"dual_index": 1},
        }
        res, code = self._run(doc, "tduality")
        assert code == 1 and res["status"] == "fail"
        assert any("dualized coordinate" in w for w in res["witnesses"])

    def test_axioms_nonclosed_flux_fails(self):
        doc = {"chart": {"dim": 4},
               "flux": [{"indices": [2, 3, 4], "coeff": "x1"}]}
        res, code = self._run(doc, "axioms", max_degree=1)
        assert code == 1 and res["status"] == "fail"
        assert any("Jacobi (twisted)" in w for w in res["witnesses"])
