#!/usr/bin/env python3
"""Alternating before/after runs of ``perfbench/run.py`` on two checkouts.

    python benchmarks/alternate.py --before DIR --after DIR --pairs 10 \\
        --seconds 10 --seed 3 --output BENCH.json [--workload NAME ...]

For each workload, ``--pairs`` pairs are run, each pair one invocation of
the benchmark in the ``--before`` checkout and one in the ``--after``
checkout, the order alternating from pair to pair so that drift in the
machine's load falls on both sides.  Every invocation uses the same seed and
``--seconds``.  The output holds, per workload and side, every run's
end-to-end metrics and their median and quartiles, and, for ``verify_s``,
the number of pairs the after side wins.  Each side's benchmark builds what
it runs from the ``src/`` of its own checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

METRICS = ("verify_s", "setup_s", "peak_rss_mb", "verdict_match_ratio")
WORKLOADS = ("axioms-r3-flux", "integrability-hk4b", "twistor-tduality-hk4b")


def run_once(checkout, workload, seed, seconds):
    """One benchmark invocation: its result object (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {k: result["metrics"][k]["value"] for k in METRICS}
    out["correct"] = result["correct"]
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--after", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--output", required=True)
    args = ap.parse_args(argv)
    sides = {"before": args.before, "after": args.after}
    report = {"seed": args.seed, "seconds": args.seconds,
              "pairs": args.pairs,
              "env": {"python": platform.python_version(),
                      "machine": platform.machine(),
                      "cpu_count": os.cpu_count()},
              "workloads": {}}
    for w in args.workload or WORKLOADS:
        runs = {"before": [], "after": []}
        for i in range(args.pairs):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run_once(sides[side], w, args.seed,
                                           args.seconds))
            print(w, i, {s: round(runs[s][-1]["verify_s"], 3) for s in runs},
                  file=sys.stderr)
        entry = {side: {"runs": rs, **{m: summary([r[m] for r in rs])
                                       for m in METRICS}}
                 for side, rs in runs.items()}
        entry["verify_s_after_wins"] = sum(
            a["verify_s"] < b["verify_s"]
            for a, b in zip(runs["after"], runs["before"]))
        entry["all_correct"] = all(r["correct"] for rs in runs.values()
                                   for r in rs)
        report["workloads"][w] = entry
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
