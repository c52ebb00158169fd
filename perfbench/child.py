"""One measured ``gencliff verify`` process.

    python3 perfbench/child.py [--setup-only] [--trace SPANS] verify \
        --input FILE --suite ... --output REPORT

The arguments after ``verify`` are the CLI's own flags, parsed by the CLI's
own parser; the process does what ``gencliff verify`` does, with timers
around ``cli.load_model`` and ``cli.run``.  Its last stdout line is a JSON
object with the timings, the wall-clock time at which set-up ended (the
parent subtracts its spawn time from it), the peak RSS and the kernel
backend.  The exit code is the CLI's: 0 pass, 1 fail, 2 input error.

``--setup-only`` stops after ``cli.load_model``.  ``--trace SPANS`` installs
the span recorder of ``tracer.py`` before the model is loaded and writes the
spans to SPANS at the end.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main(argv):
    setup_only = trace_path = None
    while argv and argv[0] != "verify":
        if argv[0] == "--setup-only":
            setup_only, argv = True, argv[1:]
        elif argv[0] == "--trace" and len(argv) > 1:
            trace_path, argv = argv[1], argv[2:]
        else:
            print(f"child.py: unexpected argument {argv[0]!r}",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    import gencliff
    from gencliff import cli

    args = cli.build_parser().parse_args(argv)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if suites == ["all"]:
        suites = list(cli.SUITE_NAMES)
    cfg = cli.RunConfig(suites=suites, max_degree=args.max_degree,
                        samples=args.samples, seed=args.seed,
                        output=args.output, fmt=args.format)
    rec = None
    if trace_path:
        import tracer
        rec = tracer.Recorder(run_id=os.getpid())
        tracer.install(rec)
    t0 = time.perf_counter()
    try:
        with rec.span("cli.load_model") if rec else nullcontext():
            model = cli.load_model(args.input, args.builtin)
    except (cli.InputError, gencliff.ExprSyntaxError, OSError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    out = {"setup_done": time.time(), "load_model_s": t1 - t0,
           "backend": gencliff.KERNEL_BACKEND}
    code = 0
    if not setup_only:
        with rec.span("cli.run") if rec else nullcontext():
            report, code = cli.run(model, cfg)
        out["verify_s"] = time.perf_counter() - t1
        cli.write_report(report, cfg.output, cfg.fmt)
    if rec:
        rec.dump(trace_path)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["exit_code"] = code
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
