#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python twin on the
workloads that dominate the verification suites: sparse polynomial products,
polynomial products of the twistor sweep's shape (16-term by 30-term
numerators in 8 variables, the dominant ``p_mul`` of ``theorem_1_3``),
Dorfman bracket sweeps, a Nijenhuis vanishing pass (each operand's image and
Jacobians built once, as in ``gcs._residuals``), and products of constant
8 x 8 EndFields (``gcs.mat_mul`` runs those on the kernel's term dicts).

Run from the repository root after building the extension in place:

    python setup.py build_ext --inplace
    python benchmarks/bench_kernel.py
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gencliff import gcs
from gencliff._core import pykernel
from gencliff.gcs import EndField
from gencliff.scalar import GaussianRational, ScalarField, standard_chart

try:
    from gencliff._core import _ckernel
except ImportError:
    _ckernel = None


def make_polys(rng, count, nvars=4, terms=6, deg=3):
    out = []
    for _ in range(count):
        p = {}
        for _ in range(terms):
            m = tuple(rng.randint(0, deg) for _ in range(nvars))
            p[m] = pykernel.c_make(rng.randint(-9, 9) or 1,
                                   rng.randint(-9, 9), rng.randint(1, 9))
        out.append(p)
    return out


def make_twistor_pairs(rng, count, nvars=8):
    """(16-term, 30-term) polynomial pairs in 8 variables with small integer
    coefficients and a few halves, like the twistor sweep's numerators."""
    def poly(terms):
        p = {}
        while len(p) < terms:
            m = tuple(rng.randint(0, 2) if rng.random() < 0.4 else 0
                      for _ in range(nvars))
            p[m] = pykernel.c_make(rng.randint(-6, 6) or 1, 0,
                                   2 if rng.random() < 0.1 else 1)
        return p
    return [(poly(16), poly(30)) for _ in range(count)]


def make_sections(rng, count, n=4):
    out = []
    for _ in range(count):
        sec = [{} for _ in range(2 * n)]
        a = rng.randrange(2 * n)
        m = tuple(rng.randint(0, 2) for _ in range(n))
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


@contextmanager
def gcs_kernel(kernel):
    """Run EndField products on the given kernel backend."""
    saved = gcs.K
    gcs.K = kernel
    try:
        yield
    finally:
        gcs.K = saved


def bench(kernel, polys, twistor_pairs, sections, ends, n=4):
    t0 = time.perf_counter()
    acc = {}
    for i in range(len(polys) - 1):
        acc = kernel.p_add(acc, kernel.p_mul(polys[i], polys[i + 1]))
    t_poly = time.perf_counter() - t0

    t0 = time.perf_counter()
    for p, q in twistor_pairs:
        kernel.p_mul(p, q)
    t_twistor = time.perf_counter() - t0

    H = {(0, 1, 2): {(0,) * n: (1, 0, 1)}}
    t0 = time.perf_counter()
    jacs = [kernel.sec_jacobian(n, A) for A in sections]
    for A, dA in zip(sections, jacs):
        for B, dB in zip(sections, jacs):
            kernel.sec_dorfman(n, A, B, H, dA, dB)
    t_dorf = time.perf_counter() - t0

    # mini Nijenhuis pass with a constant endomorphism (frame rotation)
    M = []
    for i in range(2 * n):
        M.append([(((i + 1) % (2 * n)), (1, 0, 1))])
    t0 = time.perf_counter()
    ops = []
    for A in sections:
        MA = kernel.mat_apply_const(M, A)
        ops.append((A, kernel.sec_jacobian(n, A),
                    MA, kernel.sec_jacobian(n, MA)))
    for A, dA, MA, dMA in ops:
        for B, dB, MB, dMB in ops:
            t1 = kernel.sec_dorfman(n, MA, MB, None, dMA, dMB)
            t2 = kernel.mat_apply_const(
                M, kernel.sec_dorfman(n, MA, B, None, dMA, dB))
            t3 = kernel.mat_apply_const(
                M, kernel.sec_dorfman(n, A, MB, None, dA, dMB))
            t4 = kernel.sec_dorfman(n, A, B, None, dA, dB)
            res = kernel.sec_sub(kernel.sec_sub(kernel.sec_sub(t1, t2), t3), t4)
            kernel.sec_is_zero(res)
    t_nij = time.perf_counter() - t0

    t0 = time.perf_counter()
    with gcs_kernel(kernel):
        for i in range(len(ends) - 1):
            ends[i] @ ends[i + 1]
    t_end = time.perf_counter() - t0
    return t_poly, t_twistor, t_dorf, t_nij, t_end


def main():
    rng = random.Random(20240817)
    polys = make_polys(rng, 400)
    twistor_pairs = make_twistor_pairs(rng, 200)
    sections = make_sections(rng, 60)
    ends = make_endfields(rng, 200)
    rows = []
    results = {}
    for name, kernel in (("python", pykernel), ("c", _ckernel)):
        if kernel is None:
            print("compiled kernel not built; run "
                  "`python setup.py build_ext --inplace` first")
            continue
        times = bench(kernel, polys, twistor_pairs, sections, ends)
        results[name] = times
        rows.append((name,) + times)
    print(f"{'kernel':<8} {'poly-mul':>10} {'p_mul-16x30':>10} "
          f"{'dorfman':>10} {'nijenhuis':>10} {'end-matmul':>10}")
    for name, *times in rows:
        print(f"{name:<8} " + " ".join(f"{t:>9.3f}s" for t in times))
    if "python" in results and "c" in results:
        speedups = [p / c if c else float("inf")
                    for p, c in zip(results["python"], results["c"])]
        print(f"{'speedup':<8} " + " ".join(f"{s:>9.1f}x" for s in speedups))


if __name__ == "__main__":
    main()
