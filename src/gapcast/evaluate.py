"""Metrics, observable/missing reporting splits, and the impute-then-predict
two-step baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, SpeedSeries, SplitSpec, check_node_ids, split, write_csv
from .graph import RoadGraph
from .model import EvidentialOutput, nig_nll_values
from .training import TrainConfig, TrainedModel, _observed_input, _predict_observed, train

__all__ = [
    "MetricReport",
    "WindowPredictions",
    "ImputationError",
    "row_metrics",
    "mean_impute",
    "knn_impute",
    "collect_predictions",
    "make_report",
    "two_step_pipeline",
]


class ImputationError(ValueError):
    """A missing location cannot be imputed (e.g. no reachable neighbor)."""


def mean_impute(series: SpeedSeries, graph: RoadGraph) -> SpeedSeries:
    """Fill missing-location columns with the per-step cross-sectional mean
    of the observable columns."""
    if graph.observable.size == 0:
        raise ImputationError("no observable locations to average")
    values = series.values.copy()
    obs = values[:, graph.observable]
    fill = np.nanmean(obs, axis=1)
    values[:, graph.missing] = fill[:, None]
    return replace(series, values=values)


# Observable neighbours that :func:`knn_impute` averages.
KNN_NEIGHBOURS = 3


def knn_impute(series: SpeedSeries, graph: RoadGraph) -> SpeedSeries:
    """Fill each missing column with the unweighted mean of its
    ``KNN_NEIGHBOURS`` nearest reachable observable columns by road
    distance (ties broken by node index), or of all of them if fewer are
    reachable."""
    values = series.values.copy()
    for node in graph.missing:
        dists = graph.distances[node, graph.observable]
        finite = np.isfinite(dists)
        if not finite.any():
            raise ImputationError(f"missing node {node} has no reachable observable node")
        cand = graph.observable[finite]
        cand_d = dists[finite]
        order = np.lexsort((cand, cand_d))
        chosen = cand[order[:KNN_NEIGHBOURS]]
        values[:, node] = series.values[:, chosen].mean(axis=1)
    return replace(series, values=values)


@dataclass
class WindowPredictions:
    """Per-window, per-node predictions in speed units: ``evidential`` is
    the (W, N) NIG record of the windows, so its uncertainties are speed
    variances.
    """

    target_steps: np.ndarray  # (W,) target time indices into the series
    truth: np.ndarray  # (W, N)
    evidential: EvidentialOutput

    # Read-only views of ``evidential``, named as callers index them.
    gamma = property(lambda self: self.evidential.gamma)
    nu = property(lambda self: self.evidential.nu)
    alpha = property(lambda self: self.evidential.alpha_nig)
    beta = property(lambda self: self.evidential.beta)


def collect_predictions(
    model: TrainedModel,
    eval_graph: RoadGraph,
    input_series: SpeedSeries,
    truth_series: SpeedSeries,
    stride: int = 1,
) -> WindowPredictions:
    """Run the model over every window of the input series that
    :func:`gapcast.training._observed_input` accepts and whose truth row is
    finite: a gap is never scored against a filled value. This is the
    series entry to inference; :func:`gapcast.training.predict_full` is the
    one-window entry, and both run :func:`gapcast.training._predict_observed`.

    ``eval_graph``'s partition controls the input mask (missing rows are
    zeroed), while the truth may cover all nodes; window t predicts
    t + horizon. The truth must have the input's steps and node ids, and a
    graph with node ids must name the input's columns in order. The input
    is filled once and every window runs in one call of the engine.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    if input_series.n != eval_graph.n:
        raise DataError(f"input series has {input_series.n} nodes, the graph {eval_graph.n}")
    if eval_graph.node_ids:
        check_node_ids(eval_graph.node_ids, input_series.node_ids, "the graph")
    if truth_series.steps != input_series.steps:
        raise DataError(f"truth has {truth_series.steps} steps, the input {input_series.steps}")
    if tuple(truth_series.node_ids) != tuple(input_series.node_ids):
        raise DataError("truth and input series have different node ids")
    dt = model.horizon
    ends = np.arange(model.history - 1, input_series.steps - dt, stride)
    observed, accepted = _observed_input(
        input_series.values, eval_graph.observable, ends, model.history
    )
    ends = ends[accepted & np.isfinite(truth_series.values[ends + dt]).all(axis=1)]
    if ends.size == 0:
        raise DataError("no evaluable windows in the series")
    return WindowPredictions(
        target_steps=ends + dt,
        truth=truth_series.values[ends + dt],
        evidential=_predict_observed(eval_graph, observed, ends, model),
    )


def row_metrics(pred, truth, nll, epistemic) -> dict[str, np.ndarray]:
    """RMSE, MAE, R^2, mean NLL and mean epistemic variance of each row of
    four equal (rows, samples) arrays: the one implementation of every
    score that reports and sensing read.

    R^2 is 1 - SSE/SST about the row's own truth mean, NaN when that row's
    truth has no variance and -inf when SSE/SST overflows. Rows are
    reduced contiguously, so a one-row call rounds exactly like 1-D
    ``np.mean`` and ``np.sum``.
    """
    arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in (pred, truth, nll, epistemic)]
    shapes = [a.shape for a in arrays]
    if len(shapes[0]) != 2 or shapes[0][1] == 0 or len(set(shapes)) != 1:
        raise DataError(f"need four equal (rows, samples >= 1) arrays, got {shapes}")
    pred, truth, nll, epistemic = arrays
    sq_err = (pred - truth) ** 2
    sst = np.sum((truth - truth.mean(axis=1, keepdims=True)) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r2 = np.where(sst == 0.0, np.nan, 1.0 - np.sum(sq_err, axis=1) / sst)
    return {
        "rmse": np.sqrt(np.mean(sq_err, axis=1)),
        "mae": np.mean(np.abs(pred - truth), axis=1),
        "r2": r2,
        "nll": np.mean(nll, axis=1),
        "epistemic": np.mean(epistemic, axis=1),
    }


GROUP_METRICS = ("rmse", "mae", "r2", "nll")


@dataclass
class MetricReport:
    """Grouped and per-node accuracy/uncertainty summary for one horizon."""

    horizon: int
    groups: dict[str, dict[str, float]]
    per_node: list[dict]

    def to_csv(self, path) -> None:
        rows = ([g, *(self.groups[g][m] for m in GROUP_METRICS)] for g in ("observable", "missing"))
        write_csv(path, ["group", *GROUP_METRICS], rows)

    def per_node_csv(self, path) -> None:
        cols = ["node_id", "node_index", "group", "rmse", "mae", "r2", "nll", "epistemic"]
        write_csv(path, cols, ([row[c] for c in cols] for row in self.per_node))

    def format_table(self) -> str:
        lines = [f"{'group':<12}" + "".join(f"{m:>10}" for m in GROUP_METRICS)]
        for group in ("observable", "missing"):
            row = self.groups[group]
            lines.append(
                f"{group:<12}" + "".join(f"{row[m]:>10.4f}" for m in GROUP_METRICS)
            )
        return "\n".join(lines)


def make_report(
    wp: WindowPredictions, graph: RoadGraph, horizon: int
) -> MetricReport:
    """Per-group and per-node metrics from :func:`row_metrics`: a group is
    one row of its nodes' flattened (window, node) cells, a node one row of
    the (nodes, windows) transposes."""
    ev = wp.evidential
    nll = nig_nll_values(wp.gamma, ev.nu, ev.alpha_nig, ev.beta, wp.truth)
    scored = (wp.gamma, wp.truth, nll, ev.epistemic)
    groups = {}
    for name, nodes in (("observable", graph.observable), ("missing", graph.missing)):
        if nodes.size == 0:
            groups[name] = {m: float("nan") for m in GROUP_METRICS}
            continue
        row = row_metrics(*(a[:, nodes].reshape(1, -1) for a in scored))
        groups[name] = {m: float(row[m][0]) for m in GROUP_METRICS}
    columns = row_metrics(*(a.T for a in scored))
    is_missing = np.zeros(graph.n, dtype=bool)
    is_missing[graph.missing] = True
    per_node = [
        {
            "node_id": graph.node_ids[i] if graph.node_ids else f"n{i}",
            "node_index": i,
            "group": "missing" if is_missing[i] else "observable",
            **{name: float(col[i]) for name, col in columns.items()},
        }
        for i in range(graph.n)
    ]
    return MetricReport(horizon=horizon, groups=groups, per_node=per_node)


IMPUTERS = {"mean": mean_impute, "knn": knn_impute}


def two_step_pipeline(
    imputer: str,
    graph: RoadGraph,
    series: SpeedSeries,
    split_spec: SplitSpec,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> MetricReport:
    """Impute missing-location history, train the same diffusion forecaster
    on the completed matrix with no masking, evaluate against the truth.

    Imputation only reads observable columns, so applying it to the full
    series (train and test alike) leaks nothing. The baseline drops the
    recovery term (it has no masked rows to recover).
    """
    if imputer not in IMPUTERS:
        raise DataError(f"imputer must be one of {sorted(IMPUTERS)}, got {imputer!r}")
    imputed = IMPUTERS[imputer](series, graph)
    min_steps = cfg.history + cfg.horizon
    imp_train, _, imp_test = split(imputed, split_spec, min_steps=min_steps)
    _, _, truth_test = split(series, split_spec, min_steps=min_steps)

    graph_all = graph.with_partition(np.arange(graph.n), np.empty(0, dtype=np.int64))
    base_cfg = replace(cfg, mask_training=False, loss_alpha=0.0)
    result = train(graph_all, imp_train, base_cfg, rng)
    wp = collect_predictions(result.model, graph_all, imp_test, truth_test)
    return make_report(wp, graph, horizon=cfg.horizon)
