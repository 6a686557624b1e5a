"""Sequential sensor deployment: train, predict everywhere, deploy the
budgeted batch of new sensors (highest epistemic uncertainty or uniformly
at random), reveal their history, retrain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, SpeedSeries, SplitSpec, split, write_csv
from .evaluate import collect_predictions, make_report
from .graph import RoadGraph
from .training import TrainConfig, train

__all__ = ["SensingConfig", "StepRecord", "SensingEpisode", "selection", "run_episode",
           "run_episodes"]

POLICIES = ("uncertainty", "random")


@dataclass(frozen=True)
class SensingConfig:
    """Episode shape: starting coverage, per-step budget, and step count.

    ``train`` is the per-step retraining budget (fresh initialization each
    step). Episodes split the series by the default :class:`SplitSpec`.
    """

    initial_count: int = 50
    budget_per_step: int = 10
    steps: int = 5
    train: TrainConfig = field(default_factory=lambda: TrainConfig(iterations=200))
    eval_stride: int = 4

    def __post_init__(self):
        if self.budget_per_step < 1:
            raise ValueError(f"budget_per_step must be >= 1, got {self.budget_per_step}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.eval_stride < 1:
            raise ValueError(f"eval_stride must be >= 1, got {self.eval_stride}")


@dataclass
class StepRecord:
    step: int
    n_observable: int
    added: list[int]
    rmse_observable: float
    rmse_missing: float


@dataclass
class SensingEpisode:
    policy: str
    records: list[StepRecord]

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["step", "policy", "n_observable", "node_ids_added", "rmse_obs", "rmse_missing"],
            ([rec.step, self.policy, rec.n_observable, " ".join(str(i) for i in rec.added),
              rec.rmse_observable, rec.rmse_missing] for rec in self.records),
        )


def selection(uncertainties: np.ndarray, excluded, budget: int) -> np.ndarray:
    """Top-``budget`` candidates by uncertainty, ties by node index.

    ``excluded`` nodes (already instrumented) are never candidates; an
    excluded id that is not a node index, or a negative budget, raises
    DataError.
    """
    if budget < 0:
        raise DataError(f"budget must be >= 0, got {budget}")
    u = np.asarray(uncertainties, dtype=np.float64)
    nodes = np.arange(u.size)
    excluded = np.asarray(excluded)
    if not np.isin(excluded, nodes).all():
        raise DataError(f"excluded ids must be node indices in [0, {u.size}), got {excluded}")
    candidates = np.setdiff1d(nodes, excluded.astype(np.int64))
    if budget > candidates.size:
        raise DataError(f"budget {budget} exceeds {candidates.size} candidates")
    order = np.lexsort((candidates, -u[candidates]))
    return candidates[order[:budget]]


def run_episodes(
    graph: RoadGraph,
    series: SpeedSeries,
    cfg: SensingConfig,
    policies,
    rng: np.random.Generator,
) -> list[SensingEpisode]:
    """One deployment episode per policy, in the order given, all from one
    step 0: the initial sensor set is drawn, and its model trained and
    scored, once. Each record holds metrics for the coverage it was
    trained on. A final step whose budget exceeds the remaining nodes
    deploys what is left. An empty, unknown or repeated policy raises
    DataError.
    """
    for i, policy in enumerate(policies):
        if policy not in POLICIES or policy in policies[:i]:
            raise DataError(f"policies must be distinct names from {POLICIES}, got {policy!r}")
    if not policies:
        raise DataError(f"policies must name at least one of {POLICIES}")
    n = graph.n
    if cfg.initial_count < 2 or cfg.initial_count > n:
        raise DataError(f"initial_count must be in [2, {n}]")
    min_steps = cfg.train.history + cfg.train.horizon
    train_s, _, test_s = split(series, SplitSpec(), min_steps=min_steps)

    # Child generators are derived once so that two episodes with the same
    # seed are paired: identical initial coverage, and identical retraining
    # randomness whenever their sensor sets coincide. Only the selections
    # differ between policies.
    base = int(rng.integers(2**62))
    init_rng = np.random.default_rng([base, 0])
    initial = np.sort(init_rng.choice(n, size=cfg.initial_count, replace=False))

    def assess(observable, step):
        current = graph.with_partition(observable, np.setdiff1d(np.arange(n), observable))
        result = train(current, train_s, cfg.train, np.random.default_rng([base, 1, step]))
        wp = collect_predictions(result.model, current, test_s, test_s, stride=cfg.eval_stride)
        return make_report(wp, current, cfg.train.horizon)

    start = assess(initial, 0)
    episodes = []
    for policy in policies:
        observable, added, records = initial, [], []
        for step in range(cfg.steps + 1):
            report = assess(observable, step) if step else start
            rmse = [report.groups[group]["rmse"] for group in ("observable", "missing")]
            records.append(StepRecord(step, int(observable.size), added, *rmse))
            missing = np.setdiff1d(np.arange(n), observable)
            if step == cfg.steps or missing.size == 0:
                break
            budget = min(cfg.budget_per_step, missing.size)
            if policy == "uncertainty":
                epistemic = np.array([row["epistemic"] for row in report.per_node])
                chosen = selection(epistemic, observable, budget)
            else:
                select_rng = np.random.default_rng([base, 2, step])
                chosen = np.sort(select_rng.choice(missing, size=budget, replace=False))
            added = sorted(int(i) for i in chosen)
            observable = np.sort(np.concatenate([observable, chosen]))
        episodes.append(SensingEpisode(policy=policy, records=records))
    return episodes


def run_episode(
    graph: RoadGraph,
    series: SpeedSeries,
    cfg: SensingConfig,
    policy: str,
    rng: np.random.Generator,
) -> SensingEpisode:
    """One deployment episode: :func:`run_episodes` for ``policy`` alone."""
    return run_episodes(graph, series, cfg, (policy,), rng)[0]
