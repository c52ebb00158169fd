#!/usr/bin/env python3
"""Compare two benchmark results metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Both files are results written by ``run.py`` to ``perfbench/out/results/``.
Results taken on different kernel backends, workloads or trace modes are
not comparable: the script refuses them with exit code 2.
"""

import json
import sys

MUST_MATCH = ("kernel_backend", "workload", "trace")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(p) for p in argv)
    for key in MUST_MATCH:
        if base["env"][key] != new["env"][key]:
            print(f"refused: {key} differs ({base['env'][key]!r} vs "
                  f"{new['env'][key]!r})", file=sys.stderr)
            return 2
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:<52} {b['value']:>14.6g} {'-':>14} {b['unit']}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:<52} {b['value']:>14.6g} {n['value']:>14.6g} "
              f"{b['unit']:<6} x{ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
