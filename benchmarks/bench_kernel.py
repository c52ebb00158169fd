#!/usr/bin/env python3
"""Benchmark the arithmetic kernel on the workloads that dominate the
verification suites: sparse polynomial products, polynomial products of the
twistor sweep's shape (16-term by 30-term numerators in 8 variables, the
dominant ``p_mul`` of ``theorem_1_3``), Dorfman bracket sweeps, a Nijenhuis
vanishing pass (each operand's image and Jacobians built once, as in
``gcs._residuals``), a constant-operand bracket sweep in the shape of
``theorem_1_1``'s frame pairs (every bracket zero, decided from the
Jacobians), the twistor structure's numerators applied to one
bracket of an M-frame and a sphere-frame operand (``mat_apply_poly``, as
``theorem_1_3`` applies them), the pair evaluations of ``theorem_1_3``'s
certificate on the seed-0 hk4b triple of ``perfbench/workloads.py`` (12
frame pairs of integral numerators over the sphere base, each operand's
image and Jacobians built on first use), the relations, induced and
theorem11 suites' algebra on that triple (``check_relations``, ``induce``,
``project``, ``verify_triple`` and ``theorem_1_1`` on a fresh copy, which
must take the 13 products of the triple's product table and none more, set
up each of the six structures I_i, J_i once in the triple's numerator store,
build their 48 images on the frame generators once, and merge no two
denominators in the kernel's accumulators),
products of constant 8 x 8 EndFields (``gcs.mat_mul``, every entry through
ScalarField arithmetic), and ScalarField sums and products of
rational functions whose distinct denominators share a factor, which
normalize through ``scalar._gcd_fast`` and the PRS ``polygcd.p_gcd``.
Monomials are drawn as exponent tuples and packed with ``K.mono`` into the
kernel's layout (one int per monomial).

Run from the repository root:

    python benchmarks/bench_kernel.py
"""

import importlib.util
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gencliff import clifford, gcs
from gencliff._core import kernel as K
from gencliff.cli import load_model
from gencliff.clifford import (CliffordTriple, check_relations, induce,
                               project, theorem_1_1, verify_triple)
from gencliff.examples import hyperkahler_r4
from gencliff.gcs import (EndField, _Structure, _kernel_generators,
                          _kernel_setup, _numerator_setup, _operand,
                          _setup_residuals, bind_nijenhuis)
from gencliff.twistor import (_twistor_numerators, _twistor_square,
                              twistor_structure)
from gencliff.scalar import (GaussianRational, Poly, ScalarField,
                             standard_chart)


def make_polys(rng, count, nvars=4, terms=6, deg=3):
    out = []
    for _ in range(count):
        p = {}
        for _ in range(terms):
            m = K.mono(rng.randint(0, deg) for _ in range(nvars))
            p[m] = K.c_make(rng.randint(-9, 9) or 1,
                                   rng.randint(-9, 9), rng.randint(1, 9))
        out.append(p)
    return out


def make_twistor_pairs(rng, count, nvars=8):
    """(16-term, 30-term) polynomial pairs in 8 variables with small integer
    coefficients and a few halves, like the twistor sweep's numerators."""
    def poly(terms):
        p = {}
        while len(p) < terms:
            m = K.mono(rng.randint(0, 2) if rng.random() < 0.4 else 0
                       for _ in range(nvars))
            p[m] = K.c_make(rng.randint(-6, 6) or 1, 0,
                                   2 if rng.random() < 0.1 else 1)
        return p
    return [(poly(16), poly(30)) for _ in range(count)]


def make_sections(rng, count, n=4):
    out = []
    for _ in range(count):
        sec = [{} for _ in range(2 * n)]
        a = rng.randrange(2 * n)
        m = K.mono(rng.randint(0, 2) for _ in range(n))
        sec[a] = {m: (1, 0, 1)}
        out.append(sec)
    return out


def make_endfields(rng, count, n=4):
    """Constant 2n x 2n EndFields, about half the entries zero."""
    chart = standard_chart(n)
    size = 2 * n
    out = []
    for _ in range(count):
        rows = [[ScalarField.constant(chart, GaussianRational(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-1, 1), 2)))
                 if rng.random() < 0.5 else ScalarField.zero(chart)
                 for _ in range(size)] for _ in range(size)]
        out.append(EndField(chart, rows))
    return out


def make_twistor_bracket():
    """The twistor structure of hyperkahler_r4 as polynomial numerator rows
    over the sphere base, and the bracket [J d_x1, J d_u1] of the images of
    an M-frame and a sphere-frame section, built as gcs._residuals builds
    them."""
    E = twistor_structure(verify_triple(hyperkahler_r4()))
    mats = _kernel_setup(bind_nijenhuis(E))[0]
    frames = _kernel_generators(E.chart, 0)
    _, (ja, dja) = _operand("nijenhuis", mats, frames[0])
    _, (jb, djb) = _operand("nijenhuis", mats, frames[4])
    return mats["J"].kernel, K.sec_dorfman(E.chart.dim, ja, jb, None, dja,
                                           djb)


def hk4b_triple():
    """The seed-0 hk4b triple of the benchmark's input generator."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return load_model(text=workloads.dumps(workloads.hk4b_document(0))).triple


def make_twistor_setup(T):
    """The twistor structure's numerators of the triple T, set up for
    theorem_1_3's certificate: (product chart, numerator setup)."""
    Z, base, rows = _twistor_numerators(verify_triple(T))
    return Z, _numerator_setup("nijenhuis", base, [_Structure(base, rows)],
                               None, (_twistor_square(base, len(rows)),))


def make_rationals(rng, count, n=3):
    """P_i / (L_i L_(i+1)) for linear L_i = 1 + x1 + (i+2) x2 - x3 and
    random quadratic P_i: neighbours share exactly the factor L_(i+1), so
    neither denominator divides the other and normalization runs the PRS."""
    chart = standard_chart(n)

    def linear(i):
        return {K.mono(m): (c, 0, 1) for m, c in (
            ((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 0), i + 2),
            ((0, 0, 1), -1))}
    out = []
    for i in range(count):
        num = {}
        for _ in range(4):
            m = K.mono(rng.randint(0, 2) for _ in range(n))
            num[m] = K.c_make(rng.randint(-9, 9) or 1, 0, rng.randint(1, 5))
        den = K.p_mul(linear(i), linear(i + 1))
        out.append(ScalarField(Poly(chart, num), Poly(chart, den)))
    return out


def triple_algebra(T):
    """The relations, induced and theorem11 suites' algebra on a fresh copy
    of T (no product table yet), counting the numerator-matrix products of
    the table (``clifford``) and of the tensor setups (``gcs``), the kernel
    layouts of the structures in T's numerator store (``gcs._sparse_rows``),
    their images on the frame generators (operands over m^1,
    ``gcs._PowerDen.operand``) and the accumulator merges of two
    denominators (``K._merge``)."""
    counts = {"table": 0, "setups": 0, "layouts": 0, "images": 0,
              "merges": 0}
    patches = [(clifford, "_mat_mul_terms", "table"),
               (gcs, "_mat_mul_terms", "setups"),
               (gcs, "_sparse_rows", "layouts"), (K, "_merge", "merges"),
               (gcs._PowerDen, "operand", "images")]
    real = [getattr(owner, name) for owner, name, _ in patches]

    def counted(fn, key):
        def call(*args):
            # an image is an operand over m^1; a generator's is over m^0
            counts[key] += key != "images" or args[-1] == 1
            return fn(*args)
        return call
    for (owner, name, key), fn in zip(patches, real):
        setattr(owner, name, counted(fn, key))
    try:
        T = CliffordTriple(*T.generators, T.flux)
        T = T.with_status(clifford.TripleStatus(check_relations(T), ()))
        project(induce(T), T)
        assert theorem_1_1(verify_triple(T)).status == "pass"
    finally:
        for (owner, name, _), fn in zip(patches, real):
            setattr(owner, name, fn)
    assert counts == {"table": 13, "setups": 0, "layouts": 6, "images": 48,
                      "merges": 0}, counts


def bench(polys, twistor_pairs, sections, twistor_bracket, twistor_setup,
          triple, ends, rationals, n=4, families=21):
    t0 = time.perf_counter()
    acc = {}
    for i in range(len(polys) - 1):
        acc = K.p_add(acc, K.p_mul(polys[i], polys[i + 1]))
    t_poly = time.perf_counter() - t0

    t0 = time.perf_counter()
    for p, q in twistor_pairs:
        K.p_mul(p, q)
    t_twistor = time.perf_counter() - t0

    H = {(0, 1, 2): {0: (1, 0, 1)}}
    t0 = time.perf_counter()
    jacs = [K.sec_jacobian(n, A) for A in sections]
    for A, dA in zip(sections, jacs):
        for B, dB in zip(sections, jacs):
            K.sec_dorfman(n, A, B, H, dA, dB)
    t_dorf = time.perf_counter() - t0

    # mini Nijenhuis pass with a constant endomorphism (frame rotation)
    M = []
    for i in range(2 * n):
        M.append([(((i + 1) % (2 * n)), (1, 0, 1))])
    t0 = time.perf_counter()
    ops = []
    for A in sections:
        MA = K.mat_apply_const(M, A)
        ops.append((A, K.sec_jacobian(n, A), MA, K.sec_jacobian(n, MA)))
    for A, dA, MA, dMA in ops:
        for B, dB, MB, dMB in ops:
            t1 = K.sec_dorfman(n, MA, MB, None, dMA, dMB)
            t2 = K.mat_apply_const(
                M, K.sec_dorfman(n, MA, B, None, dMA, dB))
            t3 = K.mat_apply_const(
                M, K.sec_dorfman(n, A, MB, None, dA, dMB))
            t4 = K.sec_dorfman(n, A, B, None, dA, dB)
            res = K.sec_sub(K.sec_sub(K.sec_sub(t1, t2), t3), t4)
            K.sec_is_zero(res)
    t_nij = time.perf_counter() - t0

    # theorem_1_1's shape on a constant triple: per family, the frame pairs
    # a < b of the constant frame sections and their constant images, the
    # four brackets of N_J each; every Jacobian entry is None
    t0 = time.perf_counter()
    frames = _kernel_generators(standard_chart(n), 0)
    cops = []
    for A in frames:
        MA = K.mat_apply_const(M, A)
        cops.append((A, K.sec_jacobian(n, A), MA, K.sec_jacobian(n, MA)))
    for _ in range(families):
        for a, (A, dA, MA, dMA) in enumerate(cops):
            for B, dB, MB, dMB in cops[a + 1:]:
                K.sec_dorfman(n, MA, MB, None, dMA, dMB)
                K.sec_dorfman(n, MA, B, None, dMA, dB)
                K.sec_dorfman(n, A, MB, None, dA, dMB)
                K.sec_dorfman(n, A, B, None, dA, dB)
    t_const = time.perf_counter() - t0

    J, bracket = twistor_bracket
    t0 = time.perf_counter()
    for _ in range(5):
        K.mat_apply_poly(J, bracket)
    t_apply = time.perf_counter() - t0

    # theorem_1_3's certificate pairs, three times over, each time with the
    # operands built afresh
    Z, setup = twistor_setup
    t0 = time.perf_counter()
    for _ in range(3):
        for _, _, P in _setup_residuals("nijenhuis", Z, setup, None)[2]:
            assert K.sec_is_zero(P)
    t_pairs = time.perf_counter() - t0

    t0 = time.perf_counter()
    triple_algebra(triple)
    t_algebra = time.perf_counter() - t0

    t0 = time.perf_counter()
    for i in range(len(ends) - 1):
        ends[i] @ ends[i + 1]
    t_end = time.perf_counter() - t0

    t0 = time.perf_counter()
    for f, g in zip(rationals, rationals[1:]):
        f + g
        f * g
    t_rat = time.perf_counter() - t0
    return (t_poly, t_twistor, t_dorf, t_nij, t_const, t_apply, t_pairs,
            t_algebra, t_end, t_rat)


def main():
    rng = random.Random(20240817)
    T = hk4b_triple()
    times = bench(make_polys(rng, 400), make_twistor_pairs(rng, 200),
                  make_sections(rng, 60), make_twistor_bracket(),
                  make_twistor_setup(T), T, make_endfields(rng, 200),
                  make_rationals(rng, 40))
    print(" ".join(f"{h:>14}" for h in (
        "poly-mul", "p_mul-16x30", "dorfman", "nijenhuis", "const-frame",
        "mat-apply-poly", "twistor-pairs", "triple-algebra", "end-matmul",
        "rational")))
    print(" ".join(f"{t:>13.3f}s" for t in times))


if __name__ == "__main__":
    main()
