"""The axioms suite: the total-degree <= 2 Jacobi certificate against the
full degree-d sweep, its check counts, and the polarized symmetric-part
check."""

import json
from math import comb

import pytest

from gencliff import cli
from gencliff._core import pykernel
from gencliff.gcs import _kernel_generators, generator_labels

R3_CLOSED = {"chart": {"dim": 3},
             "flux": [{"indices": [1, 2, 3], "coeff": "2/3 - 5*x1 + x2*x3"}]}
R3_BARE = {"chart": {"dim": 3}}
# d(x1 dx2^dx3^dx4) = dx1^dx2^dx3^dx4 != 0: the twisted Jacobi identity fails
R4_NONCLOSED = {"chart": {"dim": 4},
                "flux": [{"indices": [2, 3, 4], "coeff": "x1"}]}


def _model(doc):
    return cli.load_model(text=json.dumps(doc))


def _axioms(doc, degree):
    return cli.suite_axioms(
        _model(doc), cli.RunConfig(suites=["axioms"], max_degree=degree))


def full_sweep(model, degree):
    """Every ordered triple of degree-<= degree generators, no caching:
    (tag, i, j, l) of each nonzero Jacobiator, in sweep order, with the
    generators' monomial degrees."""
    K = pykernel
    n = model.chart.dim
    gens = _kernel_generators(model.chart, degree)
    ops = [(A, K.sec_jacobian(n, A)) for A in gens]
    fluxes = [None]
    if model.flux is not None and not model.flux.is_zero:
        fluxes.append(model.flux.kernel_form())
    fails = []
    for kflux in fluxes:
        tag = "untwisted" if kflux is None else "twisted"

        def br(X, Y):
            XY = K.sec_dorfman(n, X[0], Y[0], kflux, X[1], Y[1])
            return XY, K.sec_jacobian(n, XY)
        for i, A in enumerate(ops):
            for j, B in enumerate(ops):
                for l, C in enumerate(ops):
                    res = K.sec_jacobi_residual(n, A, B, C, kflux, br(A, B),
                                                br(A, C), br(B, C))
                    if not K.sec_is_zero(res):
                        fails.append((tag, i, j, l))
    deg = [sum(m) for A in gens for p in A for m in p]
    return fails, deg


def expected_checks(n, degree, rounds):
    c0 = 2 * n
    c1 = 2 * n * n if degree >= 1 else 0
    c2 = 2 * n * comb(n + 1, 2) if degree >= 2 else 0
    triples = c0 ** 3 + 3 * c1 * c0 ** 2 + 3 * c1 ** 2 * c0 + 3 * c2 * c0 ** 2
    pairs = c0 * (c0 + 1) // 2 + c0 * c1
    return rounds * (triples + pairs)


@pytest.mark.parametrize("doc", [R3_CLOSED, R3_BARE, R4_NONCLOSED],
                         ids=["r3-closed", "r3-bare", "r4-nonclosed"])
def test_certificate_matches_full_sweep(doc):
    model = _model(doc)
    status, wit, _ = _axioms(doc, 1)
    fails, deg = full_sweep(model, 1)
    assert status == ("fail" if fails else "pass")
    labels = generator_labels(model.chart, 1)
    kept = [f"Jacobi ({tag}) fails at ({labels[i]}, {labels[j]}, {labels[l]})"
            for tag, i, j, l in fails if deg[i] + deg[j] + deg[l] <= 2]
    assert wit == kept[:10]
    assert (doc is R4_NONCLOSED) == bool(wit)


@pytest.mark.parametrize("doc,n,degree,rounds", [
    (R3_CLOSED, 3, 0, 2), (R3_CLOSED, 3, 1, 2), (R3_CLOSED, 3, 2, 2),
    (R3_BARE, 3, 1, 1), ({"chart": {"dim": 4}}, 4, 2, 1)])
def test_check_count_formula(doc, n, degree, rounds):
    status, wit, checks = _axioms(doc, degree)
    assert status == "pass", wit
    assert checks == expected_checks(n, degree, rounds)


def test_formula_literals():
    # triples of total degree <= 2 plus 2n(2n+1)/2 + 2n*2n*n symmetric pairs
    assert expected_checks(3, 1, 1) == 7_992 + 129
    assert expected_checks(3, 2, 1) == 11_880 + 129
    assert expected_checks(4, 2, 1) == 46_592 + 292


def test_degree_six_report_equals_degree_two():
    model = _model(R3_CLOSED)

    def suites(degree):
        report, code = cli.run(model, cli.RunConfig(suites=["axioms"],
                                                    max_degree=degree))
        for r in report["suites"]:
            r.pop("seconds")
        return report["suites"], code
    assert suites(6) == suites(2)


def test_symmetric_check_catches_symmetric_flux_contract(monkeypatch):
    # every generator has <A,A> = 0 and iota_X iota_X H = 0 term by term, so
    # only the polarized check sees a contraction made symmetric in X, Y
    # (the dx^k coefficient h (X^i Y^j - X^j Y^i) turned into a sum)
    orig = pykernel.flux_contract

    def symmetric_contract(n, X, Y, H):
        out = orig(n, X, Y, H)
        for (i, j, k), h in H.items():
            t = pykernel.p_mul(h, pykernel.p_mul(X[j], Y[i]))
            out[k] = pykernel.p_add(out[k], pykernel.p_add(t, t))
        return out

    monkeypatch.setattr(pykernel, "flux_contract", symmetric_contract)
    monkeypatch.setattr(pykernel, "sec_jacobi_residual",
                        lambda n, *args: [{} for _ in range(2 * n)])
    status, wit, _ = _axioms(R3_CLOSED, 1)
    assert status == "fail"
    assert wit and all(w.startswith("[A,B] + [B,A] = 2D<A,B> fails at")
                       and w.endswith("(twisted)") for w in wit)
