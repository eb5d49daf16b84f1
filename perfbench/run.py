"""Benchmark of the mfcert pipeline: end-to-end metrics and a traced per-layer run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload reproduce|trajectories|design-sweep|all \\
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout, never from an
installed copy; without ``src/mfcert`` the command exits with status 2.

With ``--trace 0`` the workload runs untraced, pass after pass, for about
``--seconds`` seconds (always at least one whole pass), and the last line is
the JSON result with the end-to-end metrics.  With ``--trace 1`` it runs one
untraced pass, one pass with the layer wrappers of ``layers.py`` installed,
and the kernel microbenchmarks of ``kernels.py``; the last line then holds the
per-layer metrics and the tracing overhead.  ``--workload all`` runs the
three workloads one after another, each in a fresh interpreter.

Set-up time is measured in separate fresh interpreters, each importing
``mfcert`` and parsing a preset, six before the workload and six after it.
BLAS thread pools are pinned to one thread before numpy loads, and the
provenance line records it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("reproduce", "trajectories", "design-sweep")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = "import mfcert; mfcert.config.preset('scenario1')"
#: Set-up samples taken before the workload and again after it.  The host's
#: speed changes over seconds, so two groups half a minute apart give a
#: steadier median than one group.
SETUP_REPEATS = 6
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _measure_setup(count: int, warm_up: bool) -> list:
    """Wall time of fresh interpreters that import mfcert and parse a preset.

    An untimed warm-up start keeps bytecode compilation out of the figures.
    No timeout is passed: with one, ``subprocess`` polls the child with sleeps
    of up to 50 ms, which would quantise the measurement.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = _child_env()
    if warm_up:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mfcert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _provenance(args, workload, passes) -> dict:
    import mfcert
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mfcert": mfcert.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "params": workload.params(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "setup_samples": 2 * SETUP_REPEATS,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _run_passes(workload, inputs, seconds: float) -> list:
    """Whole passes, closed loop, while the next one is expected to fit."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass(inputs, WORK_DIR))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def _run_one(args) -> int:
    setup = [] if args.trace else _measure_setup(SETUP_REPEATS, warm_up=True)
    sys.path.insert(0, str(SRC))
    import kernels
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        inputs = workload.make_inputs(args.seed)
        if args.trace:
            passes = [workload.run_pass(inputs, WORK_DIR)]
            tracer = layers.Tracer()
            tracer.install()
            try:
                passes.append(workload.run_pass(inputs, WORK_DIR))
            finally:
                tracer.uninstall()
        else:
            passes = _run_passes(workload, inputs, args.seconds)
            setup += _measure_setup(SETUP_REPEATS, warm_up=False)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    ops = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    digests = sorted({p.digest() for p in passes})
    op_ms = [1e3 * op.seconds for op in ops]

    print(f"mfcert benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  passes {len(passes)}, operations {len(ops)}, failed {failed}, "
          f"failed_frac {failed / len(ops):.4g}")
    for op in ops:
        for failure in op.failures:
            print(f"  FAILED {op.name}: {failure}")
    if len(digests) > 1:
        print("  FAILED: passes over the same inputs gave different verdicts")

    if args.trace:
        plain, traced = passes
        metrics = tracer.layer_metrics()
        metrics.update(kernels.kernel_metrics(args.seed))
        overhead = traced.wall_s - plain.wall_s
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / plain.wall_s, "ratio")
        print(f"  untraced pass {plain.wall_s:.4f} s, traced pass {traced.wall_s:.4f} s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "work_per_s": (statistics.median(p.work / p.wall_s for p in passes), "1/s"),
            "op_ms.p50": (_percentile(op_ms, 50), "ms"),
            "op_ms.p90": (_percentile(op_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters",
             "wall_s": f"median of {len(passes)} passes",
             "work_per_s": workload.work_unit,
             "op_ms.p50": f"n={len(ops)}", "op_ms.p90": f"n={len(ops)}"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit:6s} {notes.get(name, '')}")
    print(f"verdict_digest {digests[0]}")
    print("provenance " + json.dumps(_provenance(args, workload, passes),
                                     sort_keys=True))
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mfcert" / "__init__.py").is_file():
        print(f"perfbench: no mfcert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
