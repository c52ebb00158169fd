"""The axioms suite: the frame certificate (Leibniz symbols, frame
identities, frame Jacobi triples) against the full degree-1 Jacobi sweep,
its check counts, its rational-flux rounds, and bracket mutations that it
must catch."""

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
R4_BARE = {"chart": {"dim": 4}}
# rational coefficients: every 3-form on R^3 is closed; on R^4,
# d(x4/(1+x1^2) dx1^dx2^dx3) = -1/(1+x1^2) dx1^dx2^dx3^dx4 != 0
R3_RATIONAL = {"chart": {"dim": 3},
               "flux": [{"indices": [1, 2, 3], "coeff": "1/(1+x1^2)"}]}
R4_RATIONAL = {"chart": {"dim": 4},
               "flux": [{"indices": [1, 2, 3], "coeff": "x4/(1+x1^2)"}]}


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
        # polynomial coefficients: the numerators are the flux
        fluxes.append({idx: f.num.terms
                       for idx, f in model.flux.H.coeffs.items()})
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
    deg = [pykernel.degree(m) for A in gens for p in A for m in p]
    return fails, deg


def expected_checks(n, rounds):
    """Per round: the two Leibniz symbols on frame x degree-1 pairs, the
    cross terms on degree-1 pairs, the frame brackets, the symmetric part on
    unordered frame pairs, invariance on frame triples with b <= c, and
    Jacobi on every frame triple."""
    f = 2 * n
    leibniz = 2 * f * f * n
    cross = f * f * n * n
    pairs = f * (f + 1) // 2
    return rounds * (leibniz + cross + f * f + pairs + f * pairs + f ** 3)


@pytest.mark.parametrize("doc", [R3_CLOSED, R3_BARE, R4_NONCLOSED, R4_BARE],
                         ids=["r3-closed", "r3-bare", "r4-nonclosed",
                              "r4-bare"])
def test_certificate_matches_full_sweep(doc):
    model = _model(doc)
    status, wit, _ = _axioms(doc, 1)
    fails, deg = full_sweep(model, 1)
    assert status == ("fail" if fails else "pass")
    # the Jacobi witnesses are the sweep's frame-triple failures, in order
    labels = generator_labels(model.chart, 1)
    frames = [f"Jacobi ({tag}) fails at "
              f"({labels[i]}, {labels[j]}, {labels[l]})"
              for tag, i, j, l in fails if deg[i] + deg[j] + deg[l] == 0]
    assert wit == frames[:10]
    assert (doc is R4_NONCLOSED) == bool(wit)


@pytest.mark.parametrize("doc,n,degree,rounds", [
    (R3_CLOSED, 3, 0, 2), (R3_CLOSED, 3, 1, 2), (R3_CLOSED, 3, 2, 2),
    (R3_BARE, 3, 1, 1), ({"chart": {"dim": 4}}, 4, 2, 1)])
def test_check_count_formula(doc, n, degree, rounds):
    # the degree is passed but not read: the count is the formula's at every
    # max_degree
    status, wit, checks = _axioms(doc, degree)
    assert status == "pass", wit
    assert checks == expected_checks(n, rounds)


def test_formula_literals():
    # 216 Leibniz + 324 cross + 36 frame + 21 symmetric + 126 invariance
    # + 216 Jacobi checks per round at n = 3
    assert expected_checks(3, 1) == 939
    assert expected_checks(4, 1) == 2_436
    assert expected_checks(8, 1) == 27_144


def test_degree_six_report_equals_degree_two():
    model = _model(R3_CLOSED)

    def suites(degree):
        report, code = cli.run(model, cli.RunConfig(suites=["axioms"],
                                                    max_degree=degree))
        for r in report["suites"]:
            r.pop("seconds")
        return report["suites"], code
    assert suites(6) == suites(2) == suites(0)


def test_rational_flux_closed_passes():
    status, wit, checks = _axioms(R3_RATIONAL, 1)
    assert status == "pass", wit
    assert checks == expected_checks(3, 2)


def test_rational_flux_nonclosed_fails_on_jacobi():
    status, wit, _ = _axioms(R4_RATIONAL, 1)
    assert status == "fail"
    assert len(wit) == 10
    assert all(w.startswith("Jacobi (twisted) fails") for w in wit)


def test_symmetric_check_catches_symmetric_flux_contract(monkeypatch):
    # a contraction made symmetric in X, Y (the dx^k coefficient
    # h (X^i Y^j - X^j Y^i) turned into a sum) is still C-infinity-bilinear,
    # so the Leibniz and frame checks pass; the symmetric part is the first
    # identity to fail
    orig = pykernel.flux_contract

    def symmetric_contract(n, X, Y, H):
        out = orig(n, X, Y, H)
        for (i, j, k), h in H.items():
            t = pykernel.p_mul(h, pykernel.p_mul(X[j], Y[i]))
            out[k] = pykernel.p_add(out[k], pykernel.p_add(t, t))
        return out

    monkeypatch.setattr(pykernel, "flux_contract", symmetric_contract)
    status, wit, _ = _axioms(R3_CLOSED, 1)
    assert status == "fail" and full_sweep(_model(R3_CLOSED), 1)[0]
    assert wit[0] == "[A,B] + [B,A] = 2D<A,B> (twisted) fails at (d1, d2)"
    assert all("(twisted)" in w for w in wit)


def _mutated_dorfman(monkeypatch, extra):
    """Patch the kernel bracket to add extra(n, A, B, dA, dB, out) in place
    to its result; the Jacobi residual calls the patched bracket too."""
    orig = pykernel.sec_dorfman

    def bracket(n, A, B, H=None, dA=None, dB=None):
        dA = pykernel.sec_jacobian(n, A) if dA is None else dA
        dB = pykernel.sec_jacobian(n, B) if dB is None else dB
        out = orig(n, A, B, H, dA, dB)
        extra(n, A, B, dA, dB, out)
        return out

    monkeypatch.setattr(pykernel, "sec_dorfman", bracket)


def test_dropped_lie_derivative_term_fails_leibniz(monkeypatch):
    # L_X eta without its eta_j d_i X^j part
    def drop(n, A, B, dA, dB, out):
        for i in range(n):
            for j in range(n):
                if B[n + j] and dA[j] is not None and dA[j][i]:
                    out[n + i] = pykernel.p_sub(
                        out[n + i], pykernel.p_mul(B[n + j], dA[j][i]))

    _mutated_dorfman(monkeypatch, drop)
    status, wit, _ = _axioms(R3_BARE, 1)
    assert status == "fail" and full_sweep(_model(R3_BARE), 1)[0]
    assert wit[0] == ("Leibniz rule [fA, B] = f[A, B] - (rho(B)f)A "
                      "+ 2<A,B>Df (untwisted) fails at (x1*d1, e1)")


def test_cross_derivative_term_fails_cross_check(monkeypatch):
    # a d_1 A^2 d_3 B^5 term in the dx^1 component: invisible to the frame
    # and Leibniz checks, each of which has a constant argument
    def cross(n, A, B, dA, dB, out):
        if dA[1] is not None and dB[4] is not None:
            out[n] = pykernel.p_add(
                out[n], pykernel.p_mul(dA[1][0], dB[4][2]))

    _mutated_dorfman(monkeypatch, cross)
    status, wit, _ = _axioms(R3_BARE, 1)
    assert status == "fail" and full_sweep(_model(R3_BARE), 1)[0]
    assert wit == ["no (df)(dg) term in [fA, gB] (untwisted) fails at "
                   "(x1*d2, x3*e2)"]
