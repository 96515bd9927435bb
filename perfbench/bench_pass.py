"""One pass of one workload in a fresh interpreter.

    python3 perfbench/bench_pass.py --workload local --seed 7 \
        --workdir perfbench/out/work --result r.json [--trace] [--setup-only]

Run from the root of a checkout.  Imports opendyn from the checkout's
``src`` (setup), builds the workload's inputs from the seed (setup),
runs the workload and checks its outputs (run), then writes one JSON
record: setup_s, run_s, peak_rss_mb, attempted, failed, check failures,
provenance and, with --trace, the per-layer figures and spans.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import opendyn as od
    import opendyn.cli  # noqa: F401  (the local workload enters here)
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(od.__file__)) != os.path.join(src, "opendyn"):
        raise SystemExit(f"opendyn imported from {od.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    inputs = workload.inputs(od, args.seed, args.workdir)
    t_ready = time.perf_counter()

    rec = {"setup_s": t_ready - T_START,
           "provenance": {"opendyn_file": od.__file__,
                          "python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        failed, fails = 0, []
        try:
            out = workload.run(od, inputs)
        except Exception:
            failed = workload.ops_per_pass
            rec["error"] = traceback.format_exc()
        else:
            fails = workload.check(out)
        rec.update(run_s=time.perf_counter() - t_ready,
                   attempted=workload.ops_per_pass, failed=failed,
                   check_failures=fails)
        if tracer is not None:
            rec["layers"] = tracer.layer_metrics()
            rec["bindings"] = tracer.bindings
            rec["spans"] = tracer.spans
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
