"""The three benchmark workloads, driven through gapcast's public API.

Every workload is a closed loop: one client in one process repeats a fixed
unit of work, and starts the next unit only when the previous one returns.
Inputs come from ``generate_synthetic`` and reach the program only as CSV
files (see :func:`write_inputs`). The program is always called through its
module attributes (``gt.train``, not a name imported here), so the span
wrappers of a traced pass see these calls too.

Each unit checks its own outputs. An operation that raises or returns a
non-finite or out-of-domain value counts as failed.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gapcast import data as gd
from gapcast import evaluate as ge
from gapcast import graph as gg
from gapcast import sensing as gs
from gapcast import training as gt
from gapcast.model import ModelConfig

HIDE_FRAC = 0.2
SPLIT = gd.SplitSpec()
# predict_full on one window must reproduce the collect_predictions row for
# that window to this relative tolerance (speed units for gamma).
PREDICT_RTOL = 1e-9


@dataclass
class UnitResult:
    """One unit of work: its timing, its operation counts and its outputs.

    ``seconds`` covers the ``timed_ops`` operations behind the workload's
    ``op_ms``; ``ops`` and ``failed`` count every operation in the unit.
    ``outputs`` are compared bitwise across repeats and traced/untraced
    passes; ``quality`` holds the quality metrics.
    """

    seconds: float
    timed_ops: int
    ops: int
    failed: int
    outputs: dict[str, np.ndarray]
    quality: dict[str, float]
    problems: list[str] = field(default_factory=list)
    windows_scanned: int = 0
    windows_evaluated: int = 0
    predict_ms: list[float] = field(default_factory=list)
    model: object = None


@dataclass(frozen=True)
class Corridor:
    """Arguments of ``generate_synthetic`` for one workload's inputs."""

    nodes: int
    steps: int
    kappa_hops: float = 2.5
    wave_het: float = 0.0
    noise_amp: float = 2.0


def write_inputs(corridor: Corridor, seed: int, out: Path) -> None:
    """Generate a corridor from ``seed`` and write the two input CSVs.

    The files follow the CSV contracts of ``gapcast.data``. The writer is
    the benchmark's own, so the inputs stay the same when the program's
    writers change. Files appear atomically: a directory is renamed into
    place only once complete.
    """
    graph, series = gd.generate_synthetic(
        corridor.nodes,
        corridor.steps,
        np.random.default_rng(seed),
        kappa_hops=corridor.kappa_hops,
        wave_het=corridor.wave_het,
        noise_amp=corridor.noise_amp,
    )
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    with open(tmp / "speed.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", *series.node_ids])
        for t, row in zip(series.timestamps.tolist(), series.values.tolist()):
            writer.writerow([repr(t), *map(repr, row)])
    ids = graph.node_ids
    with open(tmp / "distances.csv", "w", newline="") as fh:
        fh.write("from,to,distance\n")
        for i, row in enumerate(graph.distances.tolist()):
            fh.writelines(
                f"{ids[i]},{ids[j]},{d!r}\n"
                for j, d in enumerate(row)
                if j != i and math.isfinite(d)
            )
    os.replace(tmp, out)


def load_graph(inputs: Path, corridor: Corridor):
    series = gd.load_speed_csv(inputs / "speed.csv")
    distances = gd.load_distances_csv(inputs / "distances.csv", series.node_ids)
    graph = gg.build_adjacency(
        distances, kappa=corridor.kappa_hops, node_ids=series.node_ids
    )
    return graph, series


def nig_row_ok(gamma, nu, alpha, beta) -> np.ndarray:
    """Per-row mask: every output finite and nu > 0, alpha > 1, beta > 0."""
    stacked = np.stack([gamma, nu, alpha, beta])
    finite = np.isfinite(stacked).all(axis=(0, 2))
    return finite & (nu > 0).all(axis=1) & (alpha > 1).all(axis=1) & (beta > 0).all(axis=1)


def window_count(steps: int, history: int, horizon: int, stride: int) -> int:
    return len(range(history - 1, steps - horizon, stride))


def evaluate_model(model, graph, test, stride: int = 1):
    """collect_predictions + make_report over the test slice, with checks."""
    wp = ge.collect_predictions(model, graph, test, test, stride=stride)
    report = ge.make_report(wp, graph, horizon=model.horizon)
    ok = nig_row_ok(wp.gamma, wp.nu, wp.alpha, wp.beta)
    return wp, report, int((~ok).sum())


def report_quality(report) -> dict[str, float]:
    missing = report.groups["missing"]
    return {"rmse_missing": missing["rmse"], "nll_missing": missing["nll"]}


def prediction_outputs(wp) -> dict[str, np.ndarray]:
    return {
        "target_steps": wp.target_steps,
        "gamma": wp.gamma,
        "nu": wp.nu,
        "alpha": wp.alpha,
        "beta": wp.beta,
    }


class Workload:
    name: str
    corridor: Corridor
    # Per-layer counters and span calls that must be non-zero in a traced
    # run of this workload, so that a span which stops firing fails the
    # run. Quality metrics, which may be <= 0, are only checked finite.
    expected: tuple[str, ...] = ()

    def setup(self, inputs: Path, seed: int, work: Path):
        raise NotImplementedError

    def unit(self, state) -> UnitResult:
        raise NotImplementedError

    def finish(self, state, last: UnitResult) -> UnitResult | None:
        """Work after the timed loop whose results are reported, if any."""
        return None


class SenseN40(Workload):
    name = "sense-n40"
    corridor = Corridor(nodes=40, steps=2000, kappa_hops=6.5, wave_het=0.9, noise_amp=1.5)
    config = gs.SensingConfig(
        initial_count=10,
        budget_per_step=5,
        steps=2,
        train=gt.TrainConfig(
            iterations=100, history=24, horizon=12, lr=5e-3, model=ModelConfig(hidden_dim=48)
        ),
        eval_stride=1,
    )
    expected = (
        *(f"{span}.calls" for span in (
            "autodiff.Tape.backward", "autodiff.Adam.step", "training.compute_loss",
            "model.nig_nll", "model.dgcn_layer.l1", "model.dgcn_layer.l2",
            "model.dgcn_layer.l3", "model.forward", "training.draw_sample",
            "training.train", "sensing.selection",
        )),
        "autodiff.tape_ops_per_batch",
    )

    def setup(self, inputs, seed, work):
        graph, series = load_graph(inputs, self.corridor)
        return graph, series, seed

    def unit(self, state):
        graph, series, seed = state
        start = time.perf_counter()
        episode = gs.run_episode(
            graph, series, self.config, "uncertainty", np.random.default_rng(seed)
        )
        seconds = time.perf_counter() - start
        records = episode.records
        problems = []
        failed = sum(
            not (np.isfinite(r.rmse_observable) and np.isfinite(r.rmse_missing))
            for r in records
        )
        rounds = self.config.steps + 1
        if len(records) != rounds:
            problems.append(f"episode has {len(records)} records, expected {rounds}")
        for prev, rec in zip(records, records[1:]):
            if len(set(rec.added)) != self.config.budget_per_step or (
                rec.n_observable != prev.n_observable + len(rec.added)
            ):
                problems.append(f"step {rec.step}: deployment {rec.added} is inconsistent")
        added = [i for r in records for i in r.added]
        if len(set(added)) != len(added) or not set(added) <= set(range(graph.n)):
            problems.append("a node was deployed twice or is out of range")
        return UnitResult(
            seconds=seconds,
            timed_ops=rounds,
            ops=rounds,
            failed=failed + (rounds - len(records)),
            outputs={
                "rmse": np.array([[r.rmse_observable, r.rmse_missing] for r in records]),
                "added": np.array(added, dtype=np.int64),
            },
            quality={"rmse_missing": records[-1].rmse_missing},
            problems=problems,
        )


class TrainN1000(Workload):
    name = "train-n1000"
    corridor = Corridor(nodes=1000, steps=1000)
    config = gt.TrainConfig(
        iterations=10, history=24, horizon=6, lr=5e-3, model=ModelConfig(hidden_dim=48)
    )
    # Windows of the test slice scored after the timed loop.
    eval_stride = 12
    expected = (
        *(f"{span}.calls" for span in (
            "data.load_speed_csv", "data.load_distances_csv", "graph.build_adjacency",
            "graph.subgraph", "graph.normalize", "graph.chebyshev_terms",
            "autodiff.Tape.backward",
        )),
        "autodiff.matmul_mflop_per_batch",
    )

    def setup(self, inputs, seed, work):
        graph, series = load_graph(inputs, self.corridor)
        graph = gd.hide_locations(graph, HIDE_FRAC, np.random.default_rng([seed, 1]))
        train, _, test = gd.split(
            series, SPLIT, min_steps=self.config.history + self.config.horizon
        )
        return graph, train, test, seed

    def unit(self, state):
        graph, train, _, seed = state
        start = time.perf_counter()
        result = gt.train(graph, train, self.config, np.random.default_rng([seed, 2]))
        seconds = time.perf_counter() - start
        losses = np.array([[row["j_pre"], row["j_rec"], row["j_total"]] for row in result.trace])
        iters = self.config.iterations
        failed = iters - len(losses) + int((~np.isfinite(losses).all(axis=1)).sum())
        params = result.model.params
        return UnitResult(
            seconds=seconds,
            timed_ops=iters,
            ops=iters,
            failed=failed,
            outputs={"losses": losses, **{k: params[k].values for k in sorted(params)}},
            quality={"final_loss": float(losses[-1, 2])},
            problems=[] if result.optimizer_steps == 2 * iters else ["wrong optimizer step count"],
            model=result.model,
        )

    def finish(self, state, last):
        graph, _, test, _ = state
        wp, report, failed = evaluate_model(last.model, graph, test, stride=self.eval_stride)
        scanned = window_count(test.steps, self.config.history, self.config.horizon, self.eval_stride)
        return UnitResult(
            seconds=0.0,
            timed_ops=0,
            ops=scanned,
            failed=failed + scanned - wp.target_steps.size,
            outputs={},
            quality=report_quality(report),
        )


class EvalN200(Workload):
    name = "eval-n200"
    corridor = Corridor(nodes=200, steps=4000)
    config = gt.TrainConfig(
        iterations=30, history=24, horizon=6, lr=5e-3, model=ModelConfig(hidden_dim=48)
    )
    expected = (
        *(f"{span}.calls" for span in (
            "training.predict_full", "evaluate.collect_predictions", "evaluate.make_report",
            "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
        )),
        "graph.normalize.calls_per_window",
        "evaluate.window_yield",
        "training.predict_full.p99_ms",
    )

    def setup(self, inputs, seed, work):
        graph, series = load_graph(inputs, self.corridor)
        graph = gd.hide_locations(graph, HIDE_FRAC, np.random.default_rng([seed, 1]))
        train, _, test = gd.split(
            series, SPLIT, min_steps=self.config.history + self.config.horizon
        )
        result = gt.train(graph, train, self.config, np.random.default_rng([seed, 2]))
        path = work / "model.bin"
        gt.save_model(path, result.model)
        model, _ = gt.load_model(path)
        for name, tensor in result.model.params.items():
            if not np.array_equal(tensor.values, model.params[name].values):
                raise RuntimeError(f"checkpoint round trip changed parameter {name}")
        return graph, test, model, result.trace[-1]["j_total"]

    def unit(self, state):
        graph, test, model, final_loss = state
        start = time.perf_counter()
        wp, report, failed = evaluate_model(model, graph, test)
        seconds = time.perf_counter() - start
        scanned = window_count(test.steps, model.history, model.horizon, 1)
        evaluated = int(wp.target_steps.size)

        # Every window once more through single-window predict_full.
        rows = {int(t): i for i, t in enumerate(wp.target_steps)}
        values = test.values
        single = np.full((4, evaluated, graph.n), np.nan)
        predict_ms = []
        mismatched = 0
        for t in range(model.history - 1, test.steps - model.horizon):
            row = rows.get(t + model.horizon)
            if row is None:
                continue
            window = values[t - model.history + 1 : t + 1]
            tick = time.perf_counter()
            fp = gt.predict_full(graph, window, model)
            predict_ms.append((time.perf_counter() - tick) * 1e3)
            ev = fp.evidential
            got = np.stack([ev.gamma, ev.nu, ev.alpha_nig, ev.beta])
            want = np.stack([wp.gamma[row], wp.nu[row], wp.alpha[row], wp.beta[row]])
            single[:, row] = got
            if not (nig_row_ok(*got[:, None]).all()
                    and np.allclose(got, want, rtol=PREDICT_RTOL, atol=0.0)):
                mismatched += 1
        return UnitResult(
            seconds=seconds,
            timed_ops=evaluated,
            ops=scanned + len(predict_ms),
            failed=failed + scanned - evaluated + mismatched,
            outputs={**prediction_outputs(wp), "single": single},
            quality={**report_quality(report), "final_loss": final_loss},
            windows_scanned=scanned,
            windows_evaluated=evaluated,
            predict_ms=predict_ms,
        )


WORKLOADS = {w.name: w for w in (SenseN40(), TrainN1000(), EvalN200())}
