#!/usr/bin/env python3
"""gapcast benchmark: three fixed-seed closed-loop workloads.

    python3 gapbench/run.py --workload train-n1000 --seed 1 --seconds 30 --trace 0
    python3 gapbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, from alternating untraced and traced passes. Each
metric is printed with its unit, then a machine record, then one JSON
result line. The exit code is 0 only if every correctness gate held.

Inputs are generated per seed in a child process and cached under
``.gapbench/`` in the repository root, which also receives a results file
per run. gapcast is imported from ``src/`` next to this directory and
nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# Leave no bytecode caches in the checkout being measured.
sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".gapbench"
# Each turn of the timed loop sets up at least once, and again while the
# turn's set-ups took less than SETUP_SLICE_S (at most SETUP_MAX_PER_TURN
# times), then runs one unit. Set-up samples so spread over the whole run,
# like the unit samples, instead of bunching at its start.
SETUP_SLICE_S = 0.5
SETUP_MAX_PER_TURN = 10
MIN_UNITS = 3
MIN_PAIRS = 2


def import_gapcast():
    """Import gapcast from ROOT/src, refusing any other installation."""
    src = ROOT / "src"
    if not (src / "gapcast" / "__init__.py").is_file():
        raise SystemExit(f"gapbench: no gapcast sources under {src}")
    sys.path.insert(0, str(src))
    import gapcast

    if Path(gapcast.__file__).resolve().parent != (src / "gapcast").resolve():
        raise SystemExit(f"gapbench: imported gapcast from {gapcast.__file__}, not {src}")
    return gapcast


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it exports one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Recorded beside the metrics, never folded into them, so that a drift
    of the shared host between runs can be told from a change of the code.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics() -> dict:
    spec = benchmark_spec()
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def ensure_inputs(workload, seed: int) -> Path:
    """The workload's input CSVs for ``seed``, generated once per seed.

    Generation runs in a child process so that its memory stays out of
    ``peak_rss_mb``. Only the latest seed of each workload is kept.
    """
    base = STATE / "inputs" / workload.name
    out = base / f"seed{seed}"
    if not out.is_dir():
        base.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), workload.name, str(seed), str(out)],
            check=True,
        )
        for old in base.iterdir():
            if old != out:
                shutil.rmtree(old, ignore_errors=True)
    return out


def same_bits(a: dict, b: dict) -> bool:
    import numpy as np

    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


class Run:
    """Counts operations and collects gate failures across one run."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.work = STATE / "work" / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = ensure_inputs(workload, seed)

    def setup(self):
        return self.workload.setup(self.inputs, self.seed, self.work)

    def unit(self, state, label: str):
        result = self.workload.unit(state)
        self.account(result, label)
        if self.reference is None:
            self.reference = result
        elif not (same_bits(result.outputs, self.reference.outputs)
                  and same_bits(result.quality, self.reference.quality)):
            self.problems.append(f"{label}: outputs differ from the first unit of this seed")
        return result

    def account(self, result, label: str) -> None:
        self.attempted += result.ops
        self.failed += result.failed
        self.problems += [f"{label}: {p}" for p in result.problems]
        self.problems += [f"{label}: quality metric {name} is {value}"
                          for name, value in result.quality.items() if not math.isfinite(value)]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def timed_setups(run: Run, times: list[float]):
    """One turn's set-ups, each appended to ``times``; returns the last state."""
    spent, reps = 0.0, 0
    while reps == 0 or (spent < SETUP_SLICE_S and reps < SETUP_MAX_PER_TURN):
        state = None  # release the previous state before building the next
        start = time.perf_counter()
        state = run.setup()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
        reps += 1
    return state


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    state = run.setup()
    run.unit(state, "warm-up")
    setup_times, op_ms = [], []
    deadline = time.perf_counter() + seconds
    while len(op_ms) < MIN_UNITS or time.perf_counter() < deadline:
        state = None
        state = timed_setups(run, setup_times)
        result = run.unit(state, f"unit {len(op_ms) + 1}")
        op_ms.append(result.seconds / result.timed_ops * 1e3)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
        "op_ms": statistics.median(op_ms),
    }
    samples = {"setup_s": setup_times, "op_ms": op_ms, "quality": result.quality}
    return metrics, samples


def one_pass(run: Run, tracer, label: str):
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        state = run.setup()
        result = run.unit(state, label)
        wall = time.perf_counter() - start
    return wall, result, state


def measure_per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    from spans import OP_KINDS, Tracer, span_names

    one_pass(run, None, "warm-up")
    plain_walls, traced_walls, tracers, predict_ms = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(tracers) < MIN_PAIRS or time.perf_counter() < deadline:
        wall, plain, state = one_pass(run, None, f"untraced pass {len(tracers) + 1}")
        plain_walls.append(wall)
        predict_ms += plain.predict_ms
        tracer = Tracer()
        wall, traced, _ = one_pass(run, tracer, f"traced pass {len(tracers) + 1}")
        traced_walls.append(wall)
        tracers.append(tracer)
    first = tracers[0]
    for i, tracer in enumerate(tracers[1:], start=2):
        if ({n: s.calls for n, s in tracer.stats.items()}
                != {n: s.calls for n, s in first.stats.items()}
                or tracer.tape != first.tape
                or tracer.inference_normalize_calls != first.inference_normalize_calls):
            run.problems.append(f"traced pass {i}: call counts differ from traced pass 1")
    quality = dict(traced.quality)
    extra = run.workload.finish(state, traced)
    if extra is not None:
        run.account(extra, "finish")
        quality.update(extra.quality)

    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = first.stats[name].calls
        metrics[f"{name}.self_ms"] = statistics.median(
            t.stats[name].self_ns / 1e6 for t in tracers
        )
    metrics["unspanned_ms"] = statistics.median(
        wall * 1e3 - t.top_level_ns / 1e6 for wall, t in zip(traced_walls, tracers)
    )
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    tape = first.tape
    batches = max(tape.batches, 1)
    metrics["autodiff.tape_ops_per_batch"] = sum(tape.ops.values()) / batches
    for kind in (*OP_KINDS, "other"):
        metrics[f"autodiff.tape_ops_per_batch.{kind}"] = tape.ops[kind] / batches
    metrics["autodiff.matmul_mflop_per_batch"] = tape.matmul_flop / batches / 1e6
    metrics["autodiff.matmul_mb_per_batch"] = tape.matmul_bytes / batches / 1e6
    windows = traced.windows_evaluated + len(traced.predict_ms)
    metrics["graph.normalize.calls_per_window"] = (
        first.inference_normalize_calls / windows if windows else 0.0
    )
    metrics["evaluate.window_yield"] = (
        traced.windows_evaluated / traced.windows_scanned if traced.windows_scanned else 0.0
    )
    if predict_ms:
        cuts = statistics.quantiles(predict_ms, n=100, method="inclusive")
        metrics["training.predict_full.p50_ms"] = statistics.median(predict_ms)
        metrics["training.predict_full.p99_ms"] = cuts[98]
        if len(predict_ms) * 0.01 < 10:
            run.problems.append(f"only {len(predict_ms)} predict_full samples for p99")
    else:
        metrics["training.predict_full.p50_ms"] = 0.0
        metrics["training.predict_full.p99_ms"] = 0.0
    metrics["training.final_loss"] = quality.get("final_loss", 0.0)
    metrics["evaluate.rmse_missing"] = quality.get("rmse_missing", 0.0)
    metrics["evaluate.nll_missing"] = quality.get("nll_missing", 0.0)
    for name in run.workload.expected:
        if not metrics[name] > 0:
            run.problems.append(f"{name} is {metrics[name]} on this workload; its span went blind")
    samples = {
        "untraced_pass_s": plain_walls,
        "traced_pass_s": traced_walls,
        "predict_samples": len(predict_ms),
        "tape_ops_by_kind": dict(tape.ops),
    }
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    import_gapcast()
    from workloads import WORKLOADS

    declared = declared_metrics()[trace]
    workload = WORKLOADS[name]
    run = Run(workload, seed)
    machine = machine_record()
    machine["host_probe_ms_before"] = host_probe_ms()
    try:
        measure = measure_per_layer if trace else measure_end_to_end
        metrics, samples = measure(run, seconds)
    except Exception:  # report any failure of the program as a failed run
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        run.problems.append("an operation raised; see the traceback above")
        metrics, samples = {}, {}
    finally:
        run.close()
    machine["host_probe_ms_after"] = host_probe_ms()
    if metrics and set(metrics) != set(declared):
        run.problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}"
        )
    correct = run.failed == 0 and not run.problems and bool(metrics)

    print(f"gapbench {name} seed={seed} seconds={seconds} trace={trace}")
    for metric in sorted(metrics):
        print(f"  {metric:<48} {metrics[metric]:>14.6g} {declared.get(metric, '?')}")
    if "op_ms" in samples:
        print(f"  (op_ms is the median of {len(samples['op_ms'])} units, "
              f"{min(samples['op_ms']):.6g} to {max(samples['op_ms']):.6g} ms)")
    print(f"  failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"  GATE FAILED: {problem}")
    print("machine " + json.dumps(machine, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": declared.get(m, "?")} for m, v in metrics.items()},
    }
    out = STATE / "results" / f"{name}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {**result, "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "machine": machine, "samples": samples, "problems": run.problems},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("sense-n40", "train-n1000", "eval-n200"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        merged["correct"] &= proc.returncode == 0 and bool(result.get("correct"))
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "sense-n40", "train-n1000", "eval-n200"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
