"""The benchmark's span tracer still finds every function it wraps, its
inputs still load, ``scripts/bench_compare.py`` pairs and summarises
benchmark results, and the study scripts run end to end.

``gapbench/spans.py`` patches gapcast functions by name, and
``gapbench/workloads.py`` reaches the program through CSV files,
``build_adjacency`` and the evaluation records; a rename, a deletion or a
graph change would otherwise surface only in a benchmark run.
"""

import csv
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapcast
from gapcast.data import SplitSpec, generate_synthetic, hide_locations, split
from gapcast.model import ModelConfig
from gapcast.training import TrainConfig, predict_full, train

ROOT = Path(__file__).resolve().parents[1]
GAPBENCH = ROOT / "gapbench"


def load_gapbench(name):
    spec = importlib.util.spec_from_file_location(f"gapbench_{name}", GAPBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_on_every_gapcast_module():
    modules = [
        importlib.import_module(f"gapcast.{info.name}")
        for info in pkgutil.iter_modules(gapcast.__path__)
    ]
    saved = [dict(vars(m)) for m in modules]

    def replaced():
        return [
            f"{module.__name__}.{name}"
            for module, names in zip(modules, saved)
            for name, value in names.items()
            if getattr(module, name) is not value
        ]

    tracer = load_gapbench("spans").Tracer()
    tracer.install()  # raises SpanError when a traced function is gone
    try:
        assert "gapcast.model.nig_nll_values" in replaced()
        assert "gapcast.training.predict_full" in replaced()
    finally:
        tracer.uninstall()
    assert replaced() == []


def test_benchmark_inputs_load_to_the_generated_graph(tmp_path):
    workloads = load_gapbench("workloads")
    corridor = workloads.Corridor(nodes=12, steps=40)
    workloads.write_inputs(corridor, 3, tmp_path / "inputs")
    graph, series = workloads.load_graph(tmp_path / "inputs", corridor)
    generated, _ = generate_synthetic(
        corridor.nodes, corridor.steps, np.random.default_rng(3),
        kappa_hops=corridor.kappa_hops, wave_het=corridor.wave_het,
        noise_amp=corridor.noise_amp,
    )
    assert series.node_ids == graph.node_ids == generated.node_ids
    assert graph.kernel_sigma == generated.kernel_sigma
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(
            getattr(graph.adjacency, part), getattr(generated.adjacency, part)
        )


def test_benchmark_checks_run_on_a_trained_model():
    workloads = load_gapbench("workloads")
    graph, series = generate_synthetic(8, 200, np.random.default_rng(0))
    graph = hide_locations(graph, 2, np.random.default_rng(1))
    cfg = TrainConfig(
        iterations=2, samples_per_iter=2, batch_size=2, history=6, horizon=2,
        model=ModelConfig(hidden_dim=4),
    )
    train_s, _, test = split(series, SplitSpec(), min_steps=cfg.history + cfg.horizon)
    model = train(graph, train_s, cfg, np.random.default_rng(2)).model
    wp, report, failed = workloads.evaluate_model(model, graph, test, stride=3)
    assert failed == 0 and wp.target_steps.size > 0
    quality = workloads.report_quality(report)
    assert set(quality) == {"rmse_missing", "nll_missing"}
    assert all(np.isfinite(v) for v in quality.values())
    outputs = workloads.prediction_outputs(wp)
    for name in ("gamma", "nu", "alpha", "beta"):
        assert outputs[name].shape == (wp.target_steps.size, graph.n)
    ev = predict_full(graph, test.values[: cfg.history], model).evidential
    got = np.stack([ev.gamma, ev.nu, ev.alpha_nig, ev.beta])  # as eval-n200 stacks it
    assert workloads.nig_row_ok(*got[:, None]).all()


def load_bench_compare():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(directory, workload, seed, op_ms, failed=0):
    result = {
        "workload": workload, "seed": seed, "seconds": 30.0, "trace": 0,
        "attempted": 100, "failed": failed,
        "metrics": {
            "op_ms": {"value": op_ms, "unit": "ms"},
            "setup_s": {"value": 1.0, "unit": "s"},
            "peak_rss_mb": {"value": 100.0 + seed, "unit": "MB"},
        },
        "machine": {"nproc": 2, "blas_threads": 2,
                    "host_probe_ms_before": 15.0 + seed, "host_probe_ms_after": 16.0},
    }
    directory.mkdir(exist_ok=True)
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(result))


def test_bench_compare_pairs_runs_by_workload_and_seed(tmp_path):
    bench = load_bench_compare()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(10, 8), (11, 12), (12, 9), (13, 9)], start=1):
        write_result(parent, "eval-n200", seed, before)
        write_result(change, "eval-n200", seed, after, failed=seed == 4)
    write_result(parent, "eval-n200", 9, 1.0)  # unpaired: ignored
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    record = bench.compare(bench.load_runs(parent), bench.load_runs(change), spec)
    op = record["workloads"]["eval-n200"]["op_ms"]
    assert op["pairs"] == 4 and op["change_wins"] == 3
    assert op["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert op["change"]["median"] == 9.0
    assert op["median_gain_exceeds_parent_iqr"]  # 2.5 > 1.5
    # ratios 0.8, 12/11, 0.75, 9/13: the median is (0.75 + 0.8) / 2
    assert op["median_ratio"] == pytest.approx(0.775, rel=1e-12)
    # 3 wins, 1 loss: p = 2 * (C(4,0) + C(4,1)) / 2**4
    assert op["sign_test_p"] == 0.625
    # equal values are ties, counted for neither side and dropped by the test
    setup = record["workloads"]["eval-n200"]["setup_s"]
    assert setup["change_wins"] == 0 and setup["sign_test_p"] == 1.0
    assert setup["median_ratio"] == 1.0
    failed = record["workloads"]["eval-n200"]["failed_frac"]
    assert failed["change"]["q3"] > 0
    assert failed["median_ratio"] is None  # every parent value is 0
    assert failed["sign_test_p"] == 1.0  # one loss alone
    assert record["machine"]["parent"]["nproc"] == 2
    assert record["machine"]["parent"]["runs"] == 4


def run_script(name, *args):
    """Run ``scripts/<name>`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sensing_study_script_runs_with_one_deployment_step(tmp_path):
    out = run_script(
        "run_sensing.py", "--seeds", 1, "--nodes", 8, "--steps", 300, "--init-sensors", 3,
        "--budget", 1, "--deploy-steps", 1, "--train-iters", 2, "--out", tmp_path,
    )
    assert "seed 0 random: step 1 missing" in out
    rows = read_rows(tmp_path / "sensing_curves.csv")
    assert [(r["policy"], r["step"], r["n_observable"]) for r in rows] == [
        ("uncertainty", "0", "3"), ("uncertainty", "1", "4"),
        ("random", "0", "3"), ("random", "1", "4"),
    ]
    assert all(float(r["rmse_obs"]) > 0 and float(r["rmse_missing"]) > 0 for r in rows)
    for policy in ("uncertainty", "random"):
        assert len(read_rows(tmp_path / f"episode_seed0_{policy}.csv")) == 2


def test_benchmark_script_writes_every_method_and_group(tmp_path):
    run_script(
        "run_benchmark.py", "--seeds", 1, "--nodes", 8, "--steps", 300, "--hide-count", 2,
        "--epochs", 2, "--hidden", 8, "--out", tmp_path,
    )
    rows = read_rows(tmp_path / "benchmark.csv")
    assert [(r["method"], r["seed"], r["group"]) for r in rows] == [
        (method, "0", group)
        for method in ("inductive", "mean-two-step", "knn-two-step")
        for group in ("observable", "missing")
    ]
    assert all(float(r["rmse"]) > 0 and np.isfinite(float(r["nll"])) for r in rows)
    assert len(read_rows(tmp_path / "per_node_seed0.csv")) == 8
