#!/usr/bin/env python3
"""One study of record for the paper's three claims, over a range of seeds.

Seeds are drawn as in acceptance criteria 4-7, so ``--seeds 0:5``
reproduces their numbers. Claims 1 and 2: the inductive model against the
mean and kNN two-step baselines (20 nodes, 4 hidden), with its epistemic
variance by group and its per-node Spearman(epistemic, RMSE). Claim 3:
both sensor deployment policies on the 40-node corridor. Writes study.csv
(one value per row, by repr), summary.csv (paired comparisons, with
bench_compare.py's sign test), seconds.csv (the only file that differs
between reruns), the first seed's per-node CSV and each episode's CSV.

    python3 scripts/run_study.py --seeds 10:30 --out results/study  # ~21 minutes
"""

import argparse
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from bench_compare import sign_test
from gapcast.data import SplitSpec, generate_synthetic, hide_locations, split, write_csv
from gapcast.evaluate import GROUP_METRICS, collect_predictions, make_report, two_step_pipeline
from gapcast.model import ModelConfig
from gapcast.sensing import POLICIES, SensingConfig, run_episodes
from gapcast.training import TrainConfig, train

GROUPS = ("observable", "missing")
BASELINES = ("mean-two-step", "knn-two-step")
SPEARMAN_BAR = 0.3


def seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    seeds = range(int(start), int(stop)) if start.isdecimal() and stop.isdecimal() else range(0)
    if not seeds:
        raise argparse.ArgumentTypeError(f"need a nonempty range A:B of seeds >= 0, got {text!r}")
    return seeds


@contextmanager
def clock(seconds: list, *key):
    started = time.perf_counter()
    yield
    seconds.append((*key, time.perf_counter() - started))


def forecast(seed, cfg, out, seconds):
    gen = np.random.default_rng(seed)
    graph, series = generate_synthetic(20, 2000, gen)
    graph = hide_locations(graph, 4, gen)
    spec = SplitSpec()
    train_s, _, test_s = split(series, spec, min_steps=cfg.history + cfg.horizon)
    with clock(seconds, "forecast", seed, "inductive"):
        model = train(graph, train_s, cfg, np.random.default_rng(seed)).model
        report = make_report(collect_predictions(model, graph, test_s, test_s), graph, cfg.horizon)
    reports = {"inductive": report}
    for method in BASELINES:
        with clock(seconds, "forecast", seed, method):
            reports[method] = two_step_pipeline(method.split("-")[0], graph, series, spec, cfg,
                                                np.random.default_rng(seed + 1000))
    if out:
        report.per_node_csv(out / f"per_node_seed{seed}.csv")
    rows = [("forecast", seed, method, "", group, metric, rep.groups[group][metric])
            for method, rep in reports.items() for group in GROUPS for metric in GROUP_METRICS]
    for group in GROUPS:
        epi = float(np.mean([r["epistemic"] for r in report.per_node if r["group"] == group]))
        rows.append(("forecast", seed, "inductive", "", group, "epistemic", epi))
    epi, rmse = ([r[m] for r in report.per_node] for m in ("epistemic", "rmse"))
    return rows + [("forecast", seed, "inductive", "", "all", "spearman",
                    float(spearmanr(epi, rmse).statistic))]


def sensing(seed, cfg, out, seconds):
    gen = np.random.default_rng(seed)
    graph, series = generate_synthetic(40, 2000, gen, kappa_hops=6.5, wave_het=0.9, noise_amp=1.5)
    with clock(seconds, "sensing", seed, "+".join(POLICIES)):
        episodes = run_episodes(graph, series, cfg, POLICIES, np.random.default_rng(seed))
    for episode in episodes:
        episode.to_csv(out / f"episode_seed{seed}_{episode.policy}.csv")
    return [("sensing", seed, episode.policy, r.step, group, "rmse", value)
            for episode in episodes for r in episode.records
            for group, value in zip(GROUPS, (r.rmse_observable, r.rmse_missing))]


def summarize(rows) -> list[tuple]:
    """summary.csv's rows from study.csv's: one (a, b, better, seeds,
    median_a, median_b, wins, losses, ties, sign_test_p) per comparison of
    ``a`` with ``b`` over the seeds both have. ``a`` wins a seed when its
    value is ``better`` ("lower" or "higher"); ties count for neither side.
    A key is study/method/step/group/metric, with no step for forecasts."""
    table = {}
    for study, seed, method, step, group, metric, value in rows:
        key = "/".join(str(part) for part in (study, method, step, group, metric) if part != "")
        table.setdefault(key, {})[seed] = value
    rho, bar = "forecast/inductive/all/spearman", str(SPEARMAN_BAR)
    table[bar] = dict.fromkeys(table[rho], SPEARMAN_BAR)
    pairs = [("forecast/inductive/missing/rmse", f"forecast/{b}/missing/rmse", "lower")
             for b in BASELINES]
    pairs += [(f"forecast/inductive/missing/{m}", f"forecast/inductive/observable/{m}", "higher")
              for m in ("epistemic", "nll")] + [(rho, bar, "higher")]
    pairs += [(f"sensing/uncertainty/{s}/missing/rmse", f"sensing/random/{s}/missing/rmse", "lower")
              for s in sorted({r[3] for r in rows if r[0] == "sensing" and r[3] >= 1})]
    summary = []
    for a, b, better in pairs:
        seeds = sorted(table[a].keys() & table[b].keys())
        sign = 1.0 if better == "higher" else -1.0
        gains = [sign * (table[a][s] - table[b][s]) for s in seeds]
        wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        medians = [statistics.median(table[key][s] for s in seeds) for key in (a, b)]
        summary.append((a, b, better, len(seeds), *medians, wins, losses,
                        len(seeds) - wins - losses, sign_test(wins, losses)))
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default="10:30",
                        help="half-open seed range A:B (default 10:30, held out from 0-4)")
    parser.add_argument("--iters", type=int, default=750, help="training iterations per model")
    parser.add_argument("--out", type=Path, required=True, help="directory to write")
    args = parser.parse_args()
    common = dict(iterations=args.iters, history=24, lr=5e-3, model=ModelConfig(hidden_dim=48))
    try:
        forecast_cfg = TrainConfig(**common, samples_per_iter=8, batch_size=4, horizon=6)
        sensing_cfg = SensingConfig(initial_count=10, budget_per_step=5, steps=5, eval_stride=1,
                                    train=TrainConfig(**common, horizon=12))
    except ValueError as exc:
        parser.error(f"--iters: {exc}")
    args.out.mkdir(parents=True, exist_ok=True)
    rows, seconds = [], []
    for seed in args.seeds:
        new = forecast(seed, forecast_cfg, args.out if seed == args.seeds.start else None, seconds)
        new += sensing(seed, sensing_cfg, args.out, seconds)
        print(f"seed {seed} missing rmse (sensing at step 2):", *(f"{row[2]} {row[6]:.3f}"
              for row in new if row[3] in ("", 2) and row[4:6] == ("missing", "rmse")), flush=True)
        rows += new
    write_csv(args.out / "study.csv", "study seed method step group metric value".split(), rows)
    write_csv(args.out / "summary.csv", "a b better seeds median_a median_b wins losses ties "
              "sign_test_p".split(), summarize(rows))
    write_csv(args.out / "seconds.csv", "study seed method seconds".split(), seconds)
    print((args.out / "summary.csv").read_text(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
