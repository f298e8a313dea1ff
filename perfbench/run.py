"""rotorcode benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload cli_roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` installs nothing and reports the end-to-end metrics:
setup_s, ops_per_s, p50_ms, tail_ms, peak_rss_mb (failed_frac is printed in
the summary; the JSON carries ``attempted`` and ``failed``). ``--trace 1``
runs the first pass of the mix untraced and then traced, repeatedly, and
reports the per-layer metrics of one traced pass plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
# stop starting new passes after this long, so a run always exits in time
HARD_STOP_S = 90.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_sweep", "cli_roundtrip", "codec_angle", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="only the ops at N <= 2 (quick self-tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- environment


def _git_sha(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "none (not a git checkout)"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref_path = os.path.join(root, ".git", head[5:])
    if not os.path.isfile(ref_path):
        return f"unknown ({head[5:]} is packed)"
    with open(ref_path, encoding="utf-8") as fh:
        return fh.read().strip()


def _src_sha256(src: str) -> str:
    """Hash of the package sources: identifies the code when there is no git."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "rotorcode")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(args, root: str, src: str) -> dict:
    import numpy as np
    import scipy

    import rotorcode

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(src),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "HAS_NUMBA": rotorcode.HAS_NUMBA,
        "USING_NUMBA": rotorcode.USING_NUMBA,
    }


# ---------------------------------------------------------------- set-up time


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter until its first op is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
        samples.append(elapsed)
    return samples


def setup_probe(args) -> int:
    import rotorcode.cli  # noqa: F401 - the import is what is timed

    import workloads

    workloads.make_pass(args.workload, args.seed, 0, args.tiny)
    print("ready", flush=True)
    return 0


# ---------------------------------------------------------------- statistics


def latency_metrics(outcomes) -> dict:
    """p50 and tail over all attempted ops; a failed op ranks slowest.

    A failed op's latency reads as the slowest op latency of the run, so a
    fix that turns a fast failure into a slower success cannot read as a
    latency regression.
    """
    n = len(outcomes)
    worst = max(o.elapsed for o in outcomes)
    ranked = sorted(o.elapsed if o.ok else math.inf for o in outcomes)

    def seen(x: float) -> float:
        return worst if math.isinf(x) else x

    i = max(0, n - 1 - TAIL_BEYOND)
    return {
        "p50": seen(statistics.median(ranked)),
        "tail": seen(ranked[i]),
        "tail_pct": 100.0 * (i + 1) / n,
        "tail_beyond": n - 1 - i,
    }


# ---------------------------------------------------------------- runs


def timed_run(workload: str, args, runner) -> list:
    """Whole passes over the mix until ``--seconds`` have passed."""
    import workloads

    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        for op in workloads.make_pass(workload, args.seed, index, args.tiny):
            outcomes.append(runner.run(op, len(outcomes)))
            if time.perf_counter() - start > HARD_STOP_S:
                return outcomes
        index += 1
        if time.perf_counter() - start >= args.seconds:
            return outcomes


def traced_run(workload: str, args, runner):
    """Pass 0 untraced and traced, repeated until ``--seconds`` have passed.

    Returns the outcomes; the per-layer totals of one traced pass (counts
    from the first, self times as medians over passes) with the median
    tracing overhead; and the ops whose traced output differs from their
    untraced output.
    """
    import workloads
    from tracing import Tracer

    ops = workloads.make_pass(workload, args.seed, 0, args.tiny)
    tracer = Tracer()
    outcomes, passes, overheads, mismatches = [], [], [], []
    start = time.perf_counter()
    while True:
        # alternate which side runs first, so warm-up does not bias the ratio
        traced_first = len(passes) % 2 == 1
        if not traced_first:
            plain = [runner.run(op) for op in ops]
        tracer.install()
        runner.tracer = tracer
        try:
            traced = [runner.run(op, i) for i, op in enumerate(ops)]
        finally:
            runner.tracer = None
            tracer.uninstall()
        if traced_first:
            plain = [runner.run(op) for op in ops]
        passes.append(tracer.snapshot())
        tracer.reset_totals()
        overheads.append(sum(o.elapsed for o in traced) / sum(o.elapsed for o in plain) - 1.0)
        mismatches += [a.label for a, b in zip(plain, traced)
                       if a.ok and b.ok and a.digest != b.digest]
        outcomes += plain + traced
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed > HARD_STOP_S:
            break
    layer = dict(passes[0])
    for key in layer:
        if key.endswith(".self_s"):
            layer[key] = statistics.median(p[key] for p in passes)
    layer["trace.overhead_frac"] = statistics.median(overheads)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-seed{args.seed}.jsonl"))
    return outcomes, layer, mismatches


def run_workload(args, root: str, src: str) -> int:
    setup = measure_setup(args)
    import workloads

    env = environment(args, root, src)
    print("# env: " + json.dumps(env))
    runner = workloads.Runner(OUT_DIR, digests=bool(args.trace))
    mismatches = []
    if args.trace:
        outcomes, layer, mismatches = traced_run(args.workload, args, runner)
    else:
        outcomes = timed_run(args.workload, args, runner)

    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if not o.known_defect]
    for o in unexpected:
        print(f"# FAILED {o.label}: {o.failure}")
    for label in mismatches:
        print(f"# TRACE CHANGED OUTPUT {label}")
    known = sorted({o.label for o in failed if o.known_defect})
    for label in known:
        print(f"# known defect: {label}")
    n = len(outcomes)
    print(f"# {args.workload} seed={args.seed}: attempted={n} ok={n - len(failed)} "
          f"failed={len(failed)} (known defects {len(failed) - len(unexpected)}) "
          f"failed_frac={len(failed) / n!r}")

    if args.trace:
        from tracing import metric_units

        units = {**metric_units(), "trace.overhead_frac": "ratio"}
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    else:
        busy = sum(o.elapsed for o in outcomes)
        lat = latency_metrics(outcomes)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": (n - len(failed)) / busy,
            "p50_ms": 1e3 * lat["p50"],
            "tail_ms": 1e3 * lat["tail"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "ops_per_s": f"{n - len(failed)} passing ops in {busy:.3f} s of op time",
            "tail_ms": f"p{lat['tail_pct']:.1f}, {lat['tail_beyond']} ops beyond, n={n}",
        }
        for k, v in values.items():
            print(f"#   {k:<12} {v:14.4f} {END_TO_END_UNITS[k]:<4} {notes.get(k, '')}")
        print(f"#   {'failed_frac':<12} {len(failed) / n:14.4f} {'':<4} "
              f"{len(failed)}/{n}")
    result = {
        "correct": not unexpected and not mismatches,
        "attempted": n,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one summary at the end."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rotorcode", "__init__.py")):
        print("error: no src/rotorcode here; run from the rotorcode repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
