"""Benchmark entry point for opendyn.

    python3 perfbench/run.py --workload {local,torus,evolve} --seed 7 \
        --seconds 40 --trace {0,1}

Run from the root of a checkout.  Each timed pass runs in a fresh
interpreter (perfbench/bench_pass.py), one at a time, with BLAS/OpenMP
pools held to one thread.  A run first starts one untimed interpreter
that imports opendyn and builds the inputs (it compiles bytecode and
warms the file cache), then starts passes until the next one would end
after --seconds.  With --trace 0 it prints the median setup_s, run_s and
peak_rss_mb over its passes; with --trace 1 its first pass is traced and
it prints the per-layer figures of that pass, plus trace.overhead_s, the
traced pass's run_s minus the median run_s of the untraced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A record of the run
(provenance, every pass, the spans of a traced pass) is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
PASS_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _run_pass(args, workdir: str, idx: int, trace=False, setup_only=False):
    """One fresh interpreter; returns its record, or None if it broke."""
    result = os.path.join(workdir, f"pass_{idx}.json")
    log = os.path.join(workdir, f"pass_{idx}.log")
    cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", os.path.join(workdir, "io"), "--result", result]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    t0 = time.perf_counter()
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                  env=env, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(result):
        return None, wall
    with open(result) as fh:
        return json.load(fh), wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "opendyn", "__init__.py")):
        return _fail(f"no opendyn package under {src}; run from a checkout root")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(names)}")

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    warm, _ = _run_pass(args, workdir, 0, setup_only=True)
    if warm is None:
        return _fail(f"set-up failed; see {workdir}/pass_0.log")
    passes, walls, traced = [], [], None
    t_start = time.perf_counter()
    while True:
        idx = len(walls) + 1
        rec, wall = _run_pass(args, workdir, idx,
                              trace=bool(args.trace) and traced is None)
        if rec is None:
            return _fail(f"pass {idx} broke; see {workdir}/pass_{idx}.log")
        walls.append(wall)
        if "layers" in rec:
            traced = rec
        else:
            passes.append(rec)
        elapsed = time.perf_counter() - t_start
        if passes and elapsed + statistics.median(walls) > args.seconds:
            break

    every = passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    fails = sorted({f for r in every for f in r["check_failures"]})
    med = {k: statistics.median(r[k] for r in passes)
           for k in ("run_s", "setup_s", "peak_rss_mb")}
    if traced:
        values = dict(traced["layers"], **{
            "trace.overhead_s": traced["run_s"] - med["run_s"]})
        wanted = spec["per_layer"]
    else:
        values = med
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    provenance = dict(warm["provenance"], commit=_commit(root),
                      src_sha256=_src_digest(src), nproc=os.cpu_count(),
                      affinity=len(os.sched_getaffinity(0)),
                      workload=args.workload, seed=args.seed)
    record = {"provenance": provenance, "seconds": args.seconds,
              "passes": [{k: v for k, v in r.items() if k not in ("spans", "layers")}
                         for r in every],
              "pass_wall_s": walls, "medians": med, "metrics": metrics,
              "check_failures": fails}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        with open(os.path.join(OUT, f"{tag}_trace.json"), "w") as fh:
            json.dump({"bindings": traced["bindings"], "layers": traced["layers"],
                       "spans": traced["spans"]}, fh)

    for f in fails:
        print(f"check failed: {f}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
