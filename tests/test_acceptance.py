"""End-to-end acceptance suite.

Every criterion prints one PASS/FAIL line (run with -s to stream them).
The multi-seed training studies are session fixtures shared across
criteria; all tolerances are fixed here, nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from gapcast import autodiff as ad
from gapcast.autodiff import Tape
from gapcast.cli import main as cli_main
from gapcast.data import SplitSpec, generate_synthetic, hide_locations, split
from gapcast.evaluate import collect_predictions, make_report, two_step_pipeline
from gapcast.graph import chebyshev_terms, normalize
from gapcast.model import ModelConfig, forward, nig_nll_values
from gapcast.sensing import SensingConfig, run_episodes
from gapcast.training import (
    SampleBatch,
    SubgraphSample,
    TrainConfig,
    compute_loss,
    draw_sample,
    train,
    valid_time_steps,
)

from conftest import finite_difference_gradient, relative_error
from test_model import nig_marginal_nll_quadrature

SEEDS = (0, 1, 2, 3, 4)

# Desk-scale study configuration. The criteria pin iterations/samples/horizon
# and the dataset shapes; learning rate and width are free and set for
# reliable convergence at this scale.
BENCH_TRAIN = dict(
    iterations=750, samples_per_iter=8, batch_size=4, history=24, horizon=6, lr=5e-3
)
BENCH_HIDDEN = 48

SENSE_DATA = dict(kappa_hops=6.5, wave_het=0.9, noise_amp=1.5)
SENSE_TRAIN = dict(iterations=750, history=24, horizon=12, lr=5e-3)


def check(num: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}", flush=True)
    assert ok, f"criterion {num} failed: {description}"


# -----------------------------------------------------------------------
# Criterion 1: end-to-end gradient correctness
# -----------------------------------------------------------------------


def test_criterion_1_end_to_end_gradients():
    started = time.time()
    rng = np.random.default_rng(2)
    cfg = TrainConfig(
        iterations=1, history=4, horizon=2, loss_alpha=1.0,
        model=ModelConfig(hidden_dim=6, layers=3, cheb_order=2),
    )
    graph, series = generate_synthetic(5, 120, rng)
    values = (series.values - series.values.mean()) / series.values.std()
    nodes = np.arange(5)
    sample = SubgraphSample(node_indices=nodes, reserved=nodes[:3], masked=nodes[3:], t=30)
    batch = SampleBatch.stack([[sample]], values, graph.adjacency, cfg)
    params = None

    def loss_fn():
        fwd = forward(
            params, cfg.model, ad.constant(batch.features), ad.constant(batch.mask),
            batch.operator,
        )
        return compute_loss(batch, fwd, cfg)[2]

    from gapcast.model import init_params

    params = init_params(cfg.model, cfg.history, np.random.default_rng(8))
    with Tape() as tape:
        loss = loss_fn()
    grads = tape.backward(loss)

    worst = 0.0
    entries = 0
    for name, p in params.items():
        numeric = finite_difference_gradient(lambda: loss_fn().item(), p.values)
        analytic = grads.get(p, np.zeros_like(p.values))
        worst = max(worst, relative_error(analytic, numeric))
        entries += p.values.size
    elapsed = time.time() - started
    check(
        1,
        worst < 1e-3 and elapsed < 60.0,
        f"full-model gradients vs central differences: max rel err {worst:.2e} "
        f"over {entries} parameter entries in {elapsed:.1f}s (< 1e-3, < 60s)",
    )


# -----------------------------------------------------------------------
# Criterion 2: Chebyshev recursion vs explicit polynomial oracle
# -----------------------------------------------------------------------


def test_criterion_2_chebyshev_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        order = int(rng.integers(1, 5))
        abar = rng.uniform(-1, 1, (n, n))
        h = rng.normal(size=(n, 3))
        mats = [np.eye(n), abar.copy()]
        for _ in range(2, order + 1):
            mats.append(2 * abar @ mats[-1] - mats[-2])
        terms = chebyshev_terms(abar, h, order)
        for mat, term in zip(mats[1 : order + 1], terms):
            worst = max(worst, float(np.max(np.abs(term - mat @ h))))
    check(2, worst < 1e-8, f"recursion vs explicit polynomials, 100 trials: max abs err {worst:.2e}")


# -----------------------------------------------------------------------
# Criterion 3: sampling contract suite over 1e5 draws
# -----------------------------------------------------------------------


def test_criterion_3_sampling_contracts():
    rng = np.random.default_rng(0)
    graph, series = generate_synthetic(20, 400, rng)
    graph = hide_locations(graph, 4, rng)
    cfg = TrainConfig(**BENCH_TRAIN, model=ModelConfig(hidden_dim=BENCH_HIDDEN))
    gen = np.random.default_rng(123)
    observable = set(graph.observable.tolist())
    missing = set(graph.missing.tolist())
    steps = valid_time_steps(series.values, cfg.history, cfg.horizon, graph.observable)
    masked_seen: set[int] = set()
    violations = 0
    for _ in range(1000):  # 1e5 draws in stacks of 100
        draws = [draw_sample(graph, cfg, gen, steps) for _ in range(100)]
        mask = SampleBatch.stack([draws], series.values, graph.adjacency, cfg).mask
        if mask.shape != (sum(s.node_indices.size for s in draws), 1):
            violations += 1
            continue
        rows = np.cumsum([0] + [s.node_indices.size for s in draws])
        for s, start, stop in zip(draws, rows, rows[1:]):
            reserved = set(s.reserved.tolist())
            masked = set(s.masked.tolist())
            if reserved & masked:
                violations += 1
            if not (reserved | masked) <= observable:
                violations += 1
            if (reserved | masked) & missing:
                violations += 1
            # the draw's rows: its reserved nodes, all 1.0, then its masked ones, all 0.0
            if not np.array_equal(s.node_indices, np.concatenate([s.reserved, s.masked])):
                violations += 1
            want = np.r_[np.ones(s.reserved.size), np.zeros(s.masked.size)]
            if not np.array_equal(mask[start:stop, 0], want):
                violations += 1
            masked_seen |= masked
    coverage = masked_seen == observable
    check(
        3,
        violations == 0 and coverage,
        f"1e5 draws: {violations} contract violations, all-observable-masked coverage={coverage}",
    )


# -----------------------------------------------------------------------
# Criteria 4-6: the 5-seed benchmark study
# -----------------------------------------------------------------------


@pytest.fixture(scope="session")
def benchmark_runs():
    rows = []
    for seed in SEEDS:
        gen = np.random.default_rng(seed)
        graph, series = generate_synthetic(20, 2000, gen)
        graph = hide_locations(graph, 4, gen)
        cfg = TrainConfig(**BENCH_TRAIN, model=ModelConfig(hidden_dim=BENCH_HIDDEN))
        spec = SplitSpec()
        train_s, _, test_s = split(series, spec, min_steps=cfg.history + cfg.horizon)

        started = time.time()
        result = train(graph, train_s, cfg, np.random.default_rng(seed))
        train_seconds = time.time() - started

        wp = collect_predictions(result.model, graph, test_s, test_s, stride=1)
        report = make_report(wp, graph, horizon=cfg.horizon)
        baseline = two_step_pipeline(
            "mean", graph, series, spec, cfg, np.random.default_rng(seed + 1000)
        )
        global_mean = train_s.values[:, graph.observable].mean()
        floor = float(
            np.sqrt(np.mean((test_s.values[wp.target_steps][:, graph.missing] - global_mean) ** 2))
        )
        per_node = report.per_node
        epi = np.array([r["epistemic"] for r in per_node])
        rms = np.array([r["rmse"] for r in per_node])
        rows.append(
            {
                "seed": seed,
                "train_seconds": train_seconds,
                "uignn_missing_rmse": report.groups["missing"]["rmse"],
                "baseline_missing_rmse": baseline.groups["missing"]["rmse"],
                "floor_missing_rmse": floor,
                "nll_obs": report.groups["observable"]["nll"],
                "nll_missing": report.groups["missing"]["nll"],
                "epi_obs": float(
                    np.mean([r["epistemic"] for r in per_node if r["group"] == "observable"])
                ),
                "epi_missing": float(
                    np.mean([r["epistemic"] for r in per_node if r["group"] == "missing"])
                ),
                "spearman": float(spearmanr(epi, rms).statistic),
            }
        )
    return rows


def test_criterion_4_learning_signal(benchmark_runs):
    beats_baseline = sum(
        r["uignn_missing_rmse"] < r["baseline_missing_rmse"] for r in benchmark_runs
    )
    beats_floor = sum(r["uignn_missing_rmse"] < r["floor_missing_rmse"] for r in benchmark_runs)
    slow = max(r["train_seconds"] for r in benchmark_runs)
    check(
        4,
        beats_baseline >= 4 and beats_floor == 5 and slow < 900.0,
        f"missing-location RMSE beats mean-impute baseline in {beats_baseline}/5 (need >=4), "
        f"beats global-mean floor in {beats_floor}/5 (need 5); slowest seed {slow:.0f}s (< 900s)",
    )


def test_criterion_5_uncertainty_ordering(benchmark_runs):
    wins = sum(
        r["epi_missing"] > r["epi_obs"] and r["nll_missing"] > r["nll_obs"]
        for r in benchmark_runs
    )
    check(5, wins >= 4, f"epistemic and NLL higher at missing locations in {wins}/5 seeds (need >=4)")


def test_criterion_6_uncertainty_error_correlation(benchmark_runs):
    wins = sum(r["spearman"] > 0.3 for r in benchmark_runs)
    rhos = ", ".join(f"{r['spearman']:.2f}" for r in benchmark_runs)
    check(6, wins >= 4, f"per-node Spearman(epistemic, RMSE) > 0.3 in {wins}/5 seeds [{rhos}]")


# -----------------------------------------------------------------------
# Criterion 7: active sensing
# -----------------------------------------------------------------------


@pytest.fixture(scope="session")
def sensing_runs():
    rows = []
    for seed in SEEDS:
        gen = np.random.default_rng(seed)
        graph, series = generate_synthetic(40, 2000, gen, **SENSE_DATA)
        cfg = SensingConfig(
            initial_count=10,
            budget_per_step=5,
            steps=5,
            train=TrainConfig(**SENSE_TRAIN, model=ModelConfig(hidden_dim=BENCH_HIDDEN)),
            eval_stride=1,
        )
        episodes = {
            episode.policy: episode
            for episode in run_episodes(
                graph, series, cfg, ("uncertainty", "random"), np.random.default_rng(seed)
            )
        }
        rows.append(
            {
                "seed": seed,
                "step2_uncertainty": episodes["uncertainty"].records[2].rmse_missing,
                "step2_random": episodes["random"].records[2].rmse_missing,
                "final_obs_uncertainty": episodes["uncertainty"].records[-1].rmse_observable,
                "final_obs_random": episodes["random"].records[-1].rmse_observable,
            }
        )
    return rows


def test_criterion_7_active_sensing(sensing_runs):
    wins = sum(r["step2_uncertainty"] <= r["step2_random"] for r in sensing_runs)
    u = np.array([r["final_obs_uncertainty"] for r in sensing_runs])
    v = np.array([r["final_obs_random"] for r in sensing_runs])
    gap = float(np.mean(np.abs(u - v)))
    spread = 3.0 * float(np.concatenate([u, v]).std())
    pairs = ", ".join(
        f"{r['step2_uncertainty']:.2f}<={r['step2_random']:.2f}" for r in sensing_runs
    )
    check(
        7,
        wins >= 3 and gap < spread,
        f"uncertainty <= random at step 2 in {wins}/5 paired seeds [{pairs}] (need >=3); "
        f"final observable RMSE gap {gap:.3f} < 3x across-seed std {spread:.3f}",
    )


# -----------------------------------------------------------------------
# Criterion 8: NIG NLL quadrature oracle grid
# -----------------------------------------------------------------------


def test_criterion_8_nll_quadrature_grid():
    worst = 0.0
    for nu in (0.5, 1.0, 2.0):
        for alpha in (1.5, 2.0, 4.0):
            for beta in (0.5, 1.0, 2.0):
                for resid in (0.0, 1.0, 2.0):
                    closed = nig_nll_values(
                        np.array([0.0]), [nu], [alpha], [beta], np.array([resid])
                    )[0]
                    numeric = nig_marginal_nll_quadrature(resid, 0.0, nu, alpha, beta)
                    worst = max(worst, abs(closed - numeric))
    check(
        8,
        worst < 1e-4,
        f"closed-form NLL vs quadrature over 27 parameter tuples x 3 residuals: "
        f"max abs err {worst:.2e} (< 1e-4)",
    )


# -----------------------------------------------------------------------
# Criterion 9: forward cost grows sub-quadratically in edge count
# -----------------------------------------------------------------------


def test_criterion_9_complexity_direction():
    cfg = ModelConfig(hidden_dim=64, layers=3, cheb_order=2)
    history = 24
    from gapcast.model import init_params

    params = init_params(cfg, history, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = ad.constant(rng.normal(size=(200, history)))
    mask = ad.constant(np.ones((200, history)))

    def timed_forward(kappa_hops):
        graph, _ = generate_synthetic(200, 10, np.random.default_rng(0), kappa_hops=kappa_hops)
        edges = int((graph.adjacency > 0).sum())
        trans = normalize(graph.adjacency)
        forward(params, cfg, x, mask, trans)  # warm up
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            forward(params, cfg, x, mask, trans)
            times.append(time.perf_counter() - t0)
        return edges, float(np.median(times))

    e1, t1 = timed_forward(2.5)
    e2, t2 = timed_forward(5.5)
    assert e2 > 1.8 * e1
    slope = float(np.log(t2 / t1) / np.log(e2 / e1))
    check(
        9,
        slope < 1.5,
        f"forward time scaling at n=200, K=2: edges {e1}->{e2}, "
        f"median time {t1*1e3:.2f}ms->{t2*1e3:.2f}ms, log-log slope {slope:.2f} (< 1.5)",
    )


# -----------------------------------------------------------------------
# Criterion 10: CLI reruns are bitwise identical
# -----------------------------------------------------------------------


def test_criterion_10_cli_reproducibility(tmp_path):
    data = tmp_path / "data"
    gen_args = ["generate", "--nodes", "10", "--steps", "300", "--seed", "3", "--out", str(data)]
    train_out = tmp_path / "train"
    train_args = [
        "train",
        "--data", str(data / "speed.csv"),
        "--distances", str(data / "distances.csv"),
        "--hide-count", "2", "--seed", "1", "--epochs", "3", "--samples", "4",
        "--lr", "0.003", "--history", "8", "--horizon", "10min", "--hidden", "8",
        "--kappa", "2.5", "--out", str(train_out),
    ]
    eval_out = tmp_path / "eval"
    eval_args = [
        "eval",
        "--checkpoint", str(train_out / "checkpoint.bin"),
        "--data", str(data / "speed.csv"),
        "--distances", str(data / "distances.csv"),
        "--stride", "3", "--out", str(eval_out),
    ]
    sense_out = tmp_path / "sense"
    sense_args = [
        "sense",
        "--data", str(data / "speed.csv"),
        "--distances", str(data / "distances.csv"),
        "--policy", "uncertainty", "--policy", "random",
        "--budget", "2", "--init-sensors", "4", "--steps", "1", "--train-iters", "2",
        "--seed", "3", "--history", "8", "--horizon", "2", "--hidden", "8",
        "--kappa", "2.5", "--eval-stride", "8", "--out", str(sense_out),
    ]
    tracked = {
        data: ("speed.csv", "distances.csv", "graph.json", "run_config.json"),
        train_out: ("checkpoint.bin", "loss_trace.csv", "run_config.json"),
        eval_out: ("metrics.csv", "per_node_metrics.csv", "run_config.json"),
        sense_out: ("episode_uncertainty.csv", "episode_random.csv", "run_config.json"),
    }

    def run_all():
        for args in (gen_args, train_args, eval_args, sense_args):
            assert cli_main(args) == 0
        return {
            str(folder / name): (folder / name).read_bytes()
            for folder, names in tracked.items()
            for name in names
        }

    first = run_all()
    second = run_all()
    mismatched = [path for path in first if first[path] != second[path]]
    check(
        10,
        not mismatched,
        f"all {len(first)} output files byte-identical on rerun"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
