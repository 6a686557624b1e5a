"""Sequential sensor deployment: train, predict everywhere, deploy the
budgeted batch of new sensors (highest epistemic uncertainty or uniformly
at random), reveal their history, retrain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, SpeedSeries, SplitSpec, split
from .evaluate import collect_predictions
from .graph import RoadGraph
from .training import TrainConfig, train

__all__ = ["SensingConfig", "StepRecord", "SensingEpisode", "selection", "run_episode"]

POLICIES = ("uncertainty", "random")


@dataclass(frozen=True)
class SensingConfig:
    """Episode shape: starting coverage, per-step budget, and step count.

    ``train`` is the per-step retraining budget (fresh initialization each
    step).
    """

    initial_count: int = 50
    budget_per_step: int = 10
    steps: int = 5
    train: TrainConfig = field(default_factory=lambda: TrainConfig(iterations=200))
    split: SplitSpec = field(default_factory=SplitSpec)
    eval_stride: int = 4


@dataclass
class StepRecord:
    step: int
    n_observable: int
    added: list[int]
    rmse_observable: float
    rmse_missing: float
    truncated: bool = False


@dataclass
class SensingEpisode:
    policy: str
    records: list[StepRecord]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["step", "policy", "n_observable", "node_ids_added", "rmse_obs", "rmse_missing"]
            )
            for rec in self.records:
                writer.writerow(
                    [
                        rec.step,
                        self.policy,
                        rec.n_observable,
                        " ".join(str(i) for i in rec.added),
                        repr(rec.rmse_observable),
                        repr(rec.rmse_missing),
                    ]
                )


def selection(uncertainties: np.ndarray, excluded, budget: int) -> np.ndarray:
    """Top-``budget`` candidates by uncertainty, ties by node index.

    ``excluded`` nodes (already instrumented) are never candidates.
    """
    u = np.asarray(uncertainties, dtype=np.float64)
    excluded = set(np.asarray(excluded, dtype=np.int64).tolist())
    candidates = np.array([i for i in range(u.size) if i not in excluded], dtype=np.int64)
    if budget > candidates.size:
        raise DataError(f"budget {budget} exceeds {candidates.size} candidates")
    order = np.lexsort((candidates, -u[candidates]))
    return candidates[order[:budget]]


def run_episode(
    graph: RoadGraph,
    series: SpeedSeries,
    cfg: SensingConfig,
    policy: str,
    rng: np.random.Generator,
) -> SensingEpisode:
    """One deployment episode under a policy.

    Starts from a random initial sensor set, then alternates train /
    evaluate / deploy. Each record holds metrics for the coverage it was
    trained on, including one final record after the last deployment. A
    final step whose budget exceeds the remaining nodes is truncated and
    flagged.
    """
    if policy not in POLICIES:
        raise DataError(f"policy must be one of {POLICIES}, got {policy!r}")
    n = graph.n
    if cfg.initial_count < 2 or cfg.initial_count > n:
        raise DataError(f"initial_count must be in [2, {n}]")
    min_steps = cfg.train.history + cfg.train.horizon
    train_series, _, test_series = split(series, cfg.split, min_steps=min_steps)

    # Child generators are derived once so that two episodes with the same
    # seed are paired: identical initial coverage, and identical retraining
    # randomness whenever their sensor sets coincide. Only the selections
    # differ between policies.
    base = int(rng.integers(2**62))
    init_rng = np.random.default_rng([base, 0])
    observable = np.sort(init_rng.choice(n, size=cfg.initial_count, replace=False))
    records: list[StepRecord] = []
    added: list[int] = []
    truncated = False
    for step in range(cfg.steps + 1):
        missing = np.setdiff1d(np.arange(n), observable)
        current = graph.with_partition(observable, missing)
        result = train(current, train_series, cfg.train, np.random.default_rng([base, 1, step]))
        wp = collect_predictions(
            result.model, current, test_series, test_series, stride=cfg.eval_stride
        )
        records.append(
            StepRecord(
                step=step,
                n_observable=int(observable.size),
                added=added,
                rmse_observable=wp.group_rmse(current.observable),
                rmse_missing=wp.group_rmse(current.missing),
                truncated=truncated,
            )
        )
        if step == cfg.steps or missing.size == 0:
            break
        budget = cfg.budget_per_step
        if budget > missing.size:
            budget = missing.size
            truncated = True
        if policy == "uncertainty":
            chosen = selection(wp.per_node_epistemic(), observable, budget)
        else:
            select_rng = np.random.default_rng([base, 2, step])
            chosen = np.sort(select_rng.choice(missing, size=budget, replace=False))
        added = sorted(int(i) for i in chosen)
        observable = np.sort(np.concatenate([observable, chosen]))
    return SensingEpisode(policy=policy, records=records)
