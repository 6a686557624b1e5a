"""The benchmark's span tracer still finds every function it wraps, its
inputs still load, ``scripts/bench_compare.py`` pairs and summarises
benchmark results, and the study script runs end to end and summarises
its seeds with the same sign test.

``gapbench/spans.py`` patches gapcast functions by name, and
``gapbench/workloads.py`` reaches the program through CSV files,
``build_adjacency`` and the evaluation records; a rename, a deletion or a
graph change would otherwise surface only in a benchmark run.
"""

import ast
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
from gapcast.sensing import SensingConfig
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


def test_every_export_resolves():
    """Every name in ``gapcast.__all__`` and in each module's ``__all__``
    exists, so a deleted helper cannot leave its export behind."""
    modules = [gapcast] + [
        importlib.import_module(f"gapcast.{info.name}")
        for info in pkgutil.iter_modules(gapcast.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1 and missing == []


def test_traced_run_sees_every_fused_call():
    """A fused op must not hide a call the benchmark's spans and counters
    read: every diffusion layer, the Chebyshev terms, the batch operator's
    gather and normalisation, the loss, Adam, the heads' matmul work and
    the inference normalisation stay visible to the tracer. Training
    gathers the operators of a chunk of batches with one ``subgraph`` call
    and normalises them with one ``normalize`` call; this run's two
    batches fit one chunk. A sensing episode fires the spans sense-n40
    requires."""
    graph, series = generate_synthetic(8, 200, np.random.default_rng(0))
    graph = hide_locations(graph, 2, np.random.default_rng(1))
    cfg = TrainConfig(
        iterations=2, samples_per_iter=2, batch_size=2, history=6, horizon=2,
        model=ModelConfig(hidden_dim=4),
    )
    train_s, _, test = split(series, SplitSpec(), min_steps=cfg.history + cfg.horizon)
    training = importlib.import_module("gapcast.training")
    evaluate = importlib.import_module("gapcast.evaluate")
    tracer = load_gapbench("spans").Tracer()
    with tracer:  # called through their modules, where the tracer wraps them
        model = training.train(graph, train_s, cfg, np.random.default_rng(2)).model
        per_chunk = [tracer.stats[name].calls for name in ("graph.subgraph", "graph.normalize")]
        evaluate.collect_predictions(model, graph, test, test, stride=3)
        training.predict_full(graph, test.values[: cfg.history], model)
    for name in (
        "model.dgcn_layer.l1", "model.dgcn_layer.l2", "model.dgcn_layer.l3",
        "graph.chebyshev_terms", "graph.subgraph", "graph.normalize", "model.nig_nll",
        "autodiff.Adam.step", "evaluate.collect_predictions", "training.predict_full",
    ):
        assert tracer.stats[name].calls > 0, name
    assert tracer.tape.batches == 2 and tracer.tape.matmul_flop > 0
    assert per_chunk == [1, 1]  # one of each per chunk: both batches fit one
    assert tracer.inference_normalize_calls == 2  # once per inference call
    sensing = importlib.import_module("gapcast.sensing")
    sense_cfg = SensingConfig(initial_count=4, budget_per_step=2, steps=1, train=cfg, eval_stride=3)
    with load_gapbench("spans").Tracer() as tracer:
        sensing.run_episode(graph, series, sense_cfg, "uncertainty", np.random.default_rng(3))
    for name in ("sensing.run_episode", "sensing.selection", "training.train"):
        assert tracer.stats[name].calls > 0, name


def test_graph_imports_nothing_from_autodiff():
    """The graph layer deals in plain matrices and arrays: no import in
    ``gapcast/graph.py`` names the autodiff engine."""
    tree = ast.parse((ROOT / "src" / "gapcast" / "graph.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert names and not [name for name in names if "autodiff" in name]


def callers(paths, is_target):
    """``module.function`` (or ``module`` at module level) around every call
    in ``paths`` whose callee expression satisfies ``is_target``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and is_target(child.func):
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(found)


def named(name):
    """A callee test for ``name(...)`` and ``anything.name(...)``."""
    return lambda func: (
        isinstance(func, ast.Name) and func.id == name
        or isinstance(func, ast.Attribute) and func.attr == name
    )


def test_data_write_csv_is_the_only_csv_writer():
    """Every table is written by ``gapcast.data.write_csv``: it holds the
    only ``csv.writer(...)`` call in ``src/gapcast`` and ``scripts/``."""

    def csv_writer(func):
        return (
            isinstance(func, ast.Attribute) and func.attr == "writer"
            and isinstance(func.value, ast.Name) and func.value.id == "csv"
        )

    paths = [*(ROOT / "src" / "gapcast").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert callers(paths, csv_writer) == ["data.write_csv"]


def test_inference_has_two_entries_over_one_engine():
    """``model.forward`` runs only in training and in the inference engine
    ``training._predict_observed``, whose only callers are the series entry
    ``collect_predictions`` and the one-window entry ``predict_full``, so a
    third inference path cannot come back unseen."""
    paths = list((ROOT / "src" / "gapcast").glob("*.py"))
    assert callers(paths, named("forward")) == ["training._predict_observed", "training.train"]
    assert callers(paths, named("_predict_observed")) == [
        "evaluate.collect_predictions", "training.predict_full"
    ]


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


def load_script(name):
    """``scripts/<name>.py`` as a module; the scripts directory must be on
    ``sys.path`` for a script that imports another."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(directory, workload, seed, op_ms, failed=0, probe=15.0):
    result = {
        "workload": workload, "seed": seed, "seconds": 30.0, "trace": 0,
        "attempted": 100, "failed": failed,
        "metrics": {
            "op_ms": {"value": op_ms, "unit": "ms"},
            "setup_s": {"value": 1.0, "unit": "s"},
            "peak_rss_mb": {"value": 100.0 + seed, "unit": "MB"},
        },
        "machine": {"nproc": 2, "blas_threads": 2,
                    "host_probe_ms_before": probe + seed, "host_probe_ms_after": 16.0},
    }
    directory.mkdir(exist_ok=True)
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(result))


def test_bench_compare_pairs_runs_by_workload_and_seed(tmp_path):
    bench = load_script("bench_compare")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(10, 8), (11, 12), (12, 9), (13, 9)], start=1):
        write_result(parent, "eval-n200", seed, before)
        write_result(change, "eval-n200", seed, after, failed=seed == 4, probe=25.0)
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
    # probes of the paired runs: parent 16-19 and four 16s, change 26-29 and four 16s
    assert record["machine"]["parent"]["host_probe_ms"]["median"] == 16.0
    assert record["machine"]["change"]["host_probe_ms"]["median"] == 21.0
    lines = bench.report_lines(record)
    assert len(lines) == 4 + 1  # three end-to-end metrics and failed_frac, then the probes
    assert lines[0].startswith("eval-n200    setup_s      parent 1 change 1 wins 0/4")
    assert lines[-1].split() == ["host", "probe_ms", "parent", "16", "change", "21"]


def run_script(name, *args):
    """Run ``scripts/<name>`` in a fresh interpreter; return the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


STUDY_METHODS = ("inductive", "mean-two-step", "knn-two-step")
GROUPS = ("observable", "missing")


@pytest.fixture(scope="module")
def study_runs(tmp_path_factory):
    """Two runs of ``run_study.py`` on one seed at full size and 2
    iterations: the first run's directory, the second's, and the second's
    stdout."""
    runs = tmp_path_factory.mktemp("study")
    for run in ("a", "b"):
        done = run_script("run_study.py", "--seeds", "0:1", "--iters", 2, "--out", runs / run)
        assert done.returncode == 0, done.stderr
    return runs / "a", runs / "b", done.stdout


def study_values(out):
    rows = read_rows(out / "study.csv")
    values = {tuple(r[k] for k in ("study", "method", "step", "group", "metric")): float(r["value"])
              for r in rows}
    assert len(values) == len(rows)
    return values


def test_benchmark_script_writes_every_method_and_group(study_runs):
    """The forecasting study: every method and group with a positive RMSE,
    a finite NLL and an R2, the Spearman value, and the per-node CSV."""
    out, _, stdout = study_runs
    values = study_values(out)
    assert "seed 0 missing rmse" in stdout
    for method in STUDY_METHODS:
        for group in GROUPS:
            assert values["forecast", method, "", group, "rmse"] > 0
            assert np.isfinite(values["forecast", method, "", group, "nll"])
            assert ("forecast", method, "", group, "r2") in values
    assert np.isfinite(values["forecast", "inductive", "", "all", "spearman"])
    assert len(read_rows(out / "per_node_seed0.csv")) == 20


def test_sensing_study_script_runs_with_one_deployment_step(tmp_path, monkeypatch):
    """The study's sensing function on a one-step episode: both policies at
    steps 0 and 1 with positive RMSEs, n_observable grown by the budget in
    each episode CSV, and one timing for both policies, which share step 0."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    study = load_script("run_study")
    cfg = SensingConfig(initial_count=3, budget_per_step=1, steps=1, eval_stride=8,
                        train=TrainConfig(iterations=2, history=12, horizon=3,
                                          model=ModelConfig(hidden_dim=8)))
    seconds = []
    rows = study.sensing(0, cfg, tmp_path, seconds)
    assert [row[:5] for row in rows] == [
        ("sensing", 0, policy, step, group)
        for policy in ("uncertainty", "random") for step in (0, 1) for group in GROUPS
    ]
    assert all(row[5] == "rmse" and row[6] > 0 for row in rows)
    for policy in ("uncertainty", "random"):
        episode = read_rows(tmp_path / f"episode_seed0_{policy}.csv")
        assert [(r["step"], r["n_observable"]) for r in episode] == [("0", "3"), ("1", "4")]
    assert [key[:3] for key in seconds] == [("sensing", 0, "uncertainty+random")]


def test_study_script_writes_both_studies_and_reruns_identically(study_runs):
    """Both studies in one study.csv, both policies at every full-size
    sensing step, study and summary files that rerun byte for byte, and
    wall-clock seconds only in seconds.csv."""
    out, rerun, _ = study_runs
    for name in ("study.csv", "summary.csv"):
        assert (out / name).read_bytes() == (rerun / name).read_bytes(), name
    values = study_values(out)
    assert len(values) == 3 * 2 * 4 + 3 + 2 * 6 * 2
    assert {r["seed"] for r in read_rows(out / "study.csv")} == {"0"}
    for policy in ("uncertainty", "random"):
        for step in range(6):
            assert all(values["sensing", policy, str(step), g, "rmse"] > 0 for g in GROUPS)
        episode = read_rows(out / f"episode_seed0_{policy}.csv")
        assert [int(r["n_observable"]) for r in episode] == [10, 15, 20, 25, 30, 35]
    assert len(read_rows(out / "summary.csv")) == 2 + 2 + 1 + 5
    seconds = read_rows(out / "seconds.csv")
    assert [(r["study"], r["method"]) for r in seconds] == [
        *(("forecast", m) for m in STUDY_METHODS), ("sensing", "uncertainty+random")
    ]
    assert all(float(r["seconds"]) > 0 for r in seconds)
    files = sorted(path.name for path in out.iterdir())
    assert files == ["episode_seed0_random.csv", "episode_seed0_uncertainty.csv",
                     "per_node_seed0.csv", "seconds.csv", "study.csv", "summary.csv"]
    assert [name for name in files if "seconds" in (out / name).read_text()] == ["seconds.csv"]


@pytest.mark.parametrize("seeds", ["5:5", "a:b", "3"])
def test_study_script_refuses_a_bad_seed_range(tmp_path, seeds):
    done = run_script("run_study.py", "--seeds", seeds, "--out", tmp_path)
    assert done.returncode == 2 and "--seeds" in done.stderr
    assert not list(tmp_path.iterdir())


def test_study_summary_counts_wins_and_reuses_the_sign_test(monkeypatch):
    """Hand-made rows with known wins, losses and ties: a lower RMSE wins
    against a baseline, a higher uncertainty wins at missing locations,
    the Spearman values are compared with 0.3, step 0 of sensing is not
    compared, and each p-value is bench_compare's sign test."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    study, bench = load_script("run_study"), load_script("bench_compare")

    def seeds(kind, method, step, group, metric, values):
        return [(kind, seed, method, step, group, metric, v) for seed, v in enumerate(values)]

    rows = [
        *seeds("forecast", "inductive", "", "missing", "rmse", [1, 2, 3, 4, 5]),
        *seeds("forecast", "mean-two-step", "", "missing", "rmse", [2, 1, 4, 4, 6]),
        *seeds("forecast", "knn-two-step", "", "missing", "rmse", [0.5, 0.5, 0.5]),
        *seeds("forecast", "inductive", "", "missing", "epistemic", [5, 5, 5, 5, 5]),
        *seeds("forecast", "inductive", "", "observable", "epistemic", [1, 1, 1, 9, 5]),
        *seeds("forecast", "inductive", "", "missing", "nll", [2, 2, 2, 2, 2]),
        *seeds("forecast", "inductive", "", "observable", "nll", [1, 1, 1, 1, 1]),
        *seeds("forecast", "inductive", "", "all", "spearman", [0.5, 0.2, 0.3, 0.9, 0.4]),
    ]
    for step, unc, rand in [(0, [9] * 5, [1] * 5), (1, [1] * 5, [2] * 5), (2, [3] * 5, [2, 2, 2, 2, 3])]:
        rows += seeds("sensing", "uncertainty", step, "missing", "rmse", unc)
        rows += seeds("sensing", "random", step, "missing", "rmse", rand)
        rows += seeds("sensing", "random", step, "observable", "rmse", [0] * 5)
    got = {(a, b): rest for a, b, *rest in study.summarize(rows)}
    want = {
        ("forecast/inductive/missing/rmse", "forecast/mean-two-step/missing/rmse"):
            ("lower", 5, 3, 4, 3, 1, 1),
        ("forecast/inductive/missing/rmse", "forecast/knn-two-step/missing/rmse"):
            ("lower", 3, 2, 0.5, 0, 3, 0),
        ("forecast/inductive/missing/epistemic", "forecast/inductive/observable/epistemic"):
            ("higher", 5, 5, 1, 3, 1, 1),
        ("forecast/inductive/missing/nll", "forecast/inductive/observable/nll"):
            ("higher", 5, 2, 1, 5, 0, 0),
        ("forecast/inductive/all/spearman", "0.3"): ("higher", 5, 0.4, 0.3, 3, 1, 1),
        ("sensing/uncertainty/1/missing/rmse", "sensing/random/1/missing/rmse"):
            ("lower", 5, 1, 2, 5, 0, 0),
        ("sensing/uncertainty/2/missing/rmse", "sensing/random/2/missing/rmse"):
            ("lower", 5, 3, 2, 0, 4, 1),
    }
    assert list(got) == list(want)
    for key, (*counts, p) in got.items():
        assert tuple(counts) == want[key], key
        assert p == bench.sign_test(*counts[4:6])
    assert got["forecast/inductive/missing/nll", "forecast/inductive/observable/nll"][-1] == 0.0625
