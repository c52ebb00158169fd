#!/usr/bin/env python3
"""Seeded, layer-traced benchmark of ``gencliff verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src/``.  The
workloads are in ``workloads.py`` and ``BENCHMARK.json`` says why each was
chosen.  A run is a closed loop with one client: ``gencliff verify`` runs in
one fresh, single-threaded process after another (``child.py``) on a JSON
input made from the seed, until ``--seconds`` are used up (at least two
processes, so the determinism gate has something to compare).

With ``--trace 0`` the end-to-end metrics are
  verify_s             median wall seconds of ``cli.run`` over the runs
  setup_s              median seconds from process spawn until ``import
                       gencliff`` and ``cli.load_model`` have finished, over
                       the runs and SETUP_REPEATS set-up-only processes
  peak_rss_mb          median peak RSS of a run's process
  verdict_match_ratio  suites whose status and exit code are as expected,
                       over suites attempted, negative controls included
With ``--trace 1`` one untraced and one traced process run, and the metrics
are per layer (see ``per_layer_units``).

Every suite of a generated input must pass; the negative controls of
``workloads.controls`` must fail as stated; every report of one run must be
byte-identical once its ``seconds`` fields are dropped; every process must
use the same kernel backend.  A violation makes the suite count as a
mismatch and the result incorrect.

The last stdout line is the result object; the full result, with an
environment block, is written to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")

MIN_RUNS = 2
SETUP_REPEATS = 5
DEADLINE_S = 170.0          # the whole invocation must end within 180 s

class BenchError(RuntimeError):
    pass


class Session:
    """Spawns child processes into one working directory and keeps the
    invocation under its deadline."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, input_path, flags, pre=()):
        self.count += 1
        report = os.path.join(self.workdir, f"report-{self.count}.json")
        cmd = [sys.executable, CHILD, *pre, "verify", "--input", input_path,
               "--output", report, *flags]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next process")
        t_spawn = time.time()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a verify process ran past the deadline") \
                from None
        wall = time.perf_counter() - t0
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError(f"verify process gave no result (exit "
                             f"{proc.returncode}): {proc.stderr[-2000:]}") \
                from None
        out["setup_s"] = out["setup_done"] - t_spawn
        out["wall_s"] = wall
        out["returncode"] = proc.returncode
        if "--setup-only" not in pre:
            with open(report, "rb") as fh:
                out["report"] = fh.read()
        return out


def strip_seconds(report: bytes) -> bytes:
    """The report without its timing lines (one per suite, by the CLI's
    sorted, indented JSON layout)."""
    return b"".join(line for line in report.splitlines(keepends=True)
                    if not line.lstrip().startswith(b'"seconds":'))


def check_run(run, suites):
    """Suites of one measured run whose verdict or exit code is wrong."""
    rep = json.loads(run["report"])
    got = {s["name"]: s["status"] for s in rep["suites"]}
    if run["returncode"] != 0 or \
            [s["name"] for s in rep["suites"]] != list(suites):
        return len(suites), [f"exit {run['returncode']}, suites {got}"]
    bad = [f"{n}: {got[n]}" for n in suites if got[n] != "pass"]
    return len(bad), bad


def check_control(ctl, run):
    """Suites of a negative control that did not fail as stated."""
    rep = json.loads(run["report"])
    suites = {s["name"]: s for s in rep["suites"]}
    if run["returncode"] != 1 or set(suites) != set(ctl.expected):
        return len(ctl.expected), [f"{ctl.name}: exit {run['returncode']}"]
    bad = []
    for name, want in ctl.expected.items():
        s = suites[name]
        ok = s["status"] == want
        if want == "fail":
            ok = ok and s["witnesses"] and all(
                w.startswith(ctl.witness_prefix) for w in s["witnesses"])
        if not ok:
            bad.append(f"{ctl.name}/{name}: {s['status']} {s['witnesses']}")
    return len(bad), bad


def run_controls(session, workloads):
    """Run each negative control once: (runs, attempted, mismatched,
    problems)."""
    runs = []
    attempted = failed = 0
    problems = []
    for k, ctl in enumerate(workloads.controls()):
        path = os.path.join(session.workdir, f"control-{k}.json")
        with open(path, "w") as fh:
            fh.write(workloads.dumps(ctl.document))
        run = session.spawn(path, list(ctl.flags))
        n, why = check_control(ctl, run)
        attempted += len(ctl.expected)
        failed += n
        problems += why
        runs.append(run)
    return runs, attempted, failed, problems


def verdicts(runs, suites):
    """(attempted, mismatched, problems) over measured runs, including the
    determinism gate against the first report."""
    attempted = failed = 0
    problems = []
    first = strip_seconds(runs[0]["report"])
    for k, run in enumerate(runs):
        attempted += len(suites)
        n, why = check_run(run, suites)
        if n == 0 and strip_seconds(run["report"]) != first:
            n, why = len(suites), [f"report {k} differs from report 0"]
        failed += n
        problems += why
    return attempted, failed, problems


def suites_run(workloads):
    """Suites that some workload runs, in first-run order."""
    return list(dict.fromkeys(s for w in workloads.WORKLOADS.values()
                              for s in w.suites))


def per_layer_units(workloads):
    """Every per-layer metric name with its unit, in output order."""
    import tracer
    units = {}
    for name, _, _ in tracer.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in tracer.COUNTERS:
        units[name] = "count"
    units["polygcd.p_gcd.per_normalization"] = "ratio"
    for name in suites_run(workloads):
        units[f"cli.suite.{name}.s"] = "s"
        units[f"cli.suite.{name}.checks"] = "count"
    units["cli.load_model.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "verdict_match_ratio": "ratio"}


def measure(session, w, seed, input_path, seconds):
    flags = w.verify_flags(seed)
    setups = [session.spawn(input_path, flags, ("--setup-only",))["setup_s"]
              for _ in range(SETUP_REPEATS)]
    runs = []
    t0 = time.perf_counter()
    while True:
        runs.append(session.spawn(input_path, flags))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["wall_s"] for r in runs)
        if len(runs) >= MIN_RUNS and elapsed + typical > seconds:
            break
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "verify_s": statistics.median(r["verify_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return runs, metrics, {"runs": len(runs), "setup_samples": len(setups),
                           "measured_s": time.perf_counter() - t0}


def trace(session, workloads, w, seed, input_path):
    import tracer
    flags = w.verify_flags(seed)
    plain = session.spawn(input_path, flags)
    spans = os.path.join(session.workdir, "spans.bin")
    traced = session.spawn(input_path, flags, ("--trace", spans))
    header, cols = tracer.load(spans)
    metrics = tracer.summarize(header, cols)
    rep = json.loads(plain["report"])
    by_name = {s["name"]: s for s in rep["suites"]}
    for name in suites_run(workloads):
        s = by_name.get(name, {"seconds": 0.0, "checks": 0})
        metrics[f"cli.suite.{name}.s"] = s["seconds"]
        metrics[f"cli.suite.{name}.checks"] = s["checks"]
    metrics["cli.load_model.s"] = plain["load_model_s"]
    metrics["trace.overhead_ratio"] = traced["verify_s"] / plain["verify_s"]
    return [plain, traced], metrics, {"spans": header["count"],
                                      "run_id": header["run_id"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "gencliff", "cli.py")):
        print(f"error: no gencliff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import gencliff
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(OUT, w.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    input_path = os.path.join(workdir, "input.json")
    with open(input_path, "w") as fh:
        fh.write(workloads.dumps(workloads.document(w, args.seed)))
    session = Session(workdir, deadline)

    try:
        if args.trace:
            runs, metrics, info = trace(session, workloads, w, args.seed,
                                        input_path)
            units = per_layer_units(workloads)
        else:
            runs, metrics, info = measure(session, w, args.seed, input_path,
                                          args.seconds)
            units = END_TO_END_UNITS
        controls, c_att, c_fail, c_why = run_controls(session, workloads)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    backends = {r["backend"] for r in runs + controls}
    backends |= {json.loads(r["report"])["tool"]["kernel"]
                 for r in runs + controls}
    if backends != {gencliff.KERNEL_BACKEND}:
        print(f"error: kernel backends differ within one run: "
              f"{sorted(backends)}; results are not comparable",
              file=sys.stderr)
        return 1

    attempted, failed, problems = verdicts(runs, w.suites)
    attempted += c_att
    failed += c_fail
    problems += c_why
    if not args.trace:
        metrics["verdict_match_ratio"] = (attempted - failed) / attempted

    first = json.loads(runs[0]["report"])
    env = {"kernel_backend": gencliff.KERNEL_BACKEND,
           "python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "workload": w.name, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds,
           "suite_checks": {s["name"]: s["checks"]
                            for s in first["suites"]}}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{w.name}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "info": info, "problems": problems,
                   "runs": [{k: v for k, v in r.items() if k != "report"}
                            for r in runs], **result}, fh, indent=1)

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {info}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for p in problems:
        print(f"MISMATCH {p}")
    if not args.trace:
        print(f"  {'verify_s':<24} {metrics['verify_s']:.6g} s "
              f"(median of {info['runs']} runs)")
        print(f"  {'setup_s':<24} {metrics['setup_s']:.6g} s "
              f"(median of {info['setup_samples']} set-ups)")
        print(f"  {'peak_rss_mb':<24} {metrics['peak_rss_mb']:.6g} MB")
        print(f"  {'verdict_mismatch_ratio':<24} {failed / attempted:.6g} "
              f"ratio ({failed} of {attempted} suites)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
