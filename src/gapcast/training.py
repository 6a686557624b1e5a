"""Subgraph-sampling training: random masked subgraphs of the observable
set, prediction + recovery loss assembly, Adam optimization, and
full-network prediction with per-location uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .autodiff import Adam, Tape, Tensor
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import DataError, SpeedSeries, check_node_ids, fill_small_gaps
from .graph import RoadGraph, diagonal_block, normalize, subgraph
from .model import (
    EvidentialOutput,
    ForwardPass,
    ModelConfig,
    forward,
    init_params,
    nig_nll,
    weighted_mean,
)

__all__ = [
    "TrainConfig",
    "SubgraphSample",
    "SampleBatch",
    "Scaler",
    "TrainResult",
    "TrainedModel",
    "FullPrediction",
    "TrainingDiverged",
    "valid_time_steps",
    "draw_sample",
    "compute_loss",
    "train",
    "predict_full",
    "save_model",
    "load_model",
]


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the iteration it happened in."""

    def __init__(self, iteration: int, value: float):
        self.iteration = iteration
        super().__init__(f"non-finite loss {value} at iteration {iteration}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; one epoch is one iteration of S samples."""

    iterations: int = 750
    samples_per_iter: int = 8
    batch_size: int = 4
    history: int = 24
    horizon: int = 6
    loss_alpha: float = 1.0
    lr: float = 1e-4
    mask_training: bool = True
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.batch_size < 1 or self.history < 1 or self.horizon < 1:
            raise ValueError("batch_size, history, and horizon must be >= 1")
        if self.iterations < 1 or self.samples_per_iter < 1:
            raise ValueError("iterations and samples_per_iter must be >= 1")
        if not (math.isfinite(self.loss_alpha) and self.loss_alpha >= 0):
            raise ValueError(f"loss_alpha must be finite and >= 0, got {self.loss_alpha}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass(frozen=True)
class Scaler:
    """Z-score transform fitted on observed training values."""

    mean: float
    std: float

    @staticmethod
    def fit(values: np.ndarray, columns: np.ndarray) -> "Scaler":
        sel = values[:, columns]
        sel = sel[np.isfinite(sel)]
        if sel.size == 0:
            raise DataError("no finite observable values to fit the scaler")
        std = float(sel.std())
        return Scaler(mean=float(sel.mean()), std=std if std > 1e-9 else 1.0)

    def transform(self, arr: np.ndarray) -> np.ndarray:
        return (arr - self.mean) / self.std

    def inverse(self, arr: np.ndarray) -> np.ndarray:
        return arr * self.std + self.mean


@dataclass
class SubgraphSample:
    """One training draw, only what the rng decided: graph-level
    ``node_indices`` in row order (the ``reserved`` nodes, then the
    ``masked`` ones, whose features the mask zeroes) and ``t``, the last
    step of the history window. :meth:`SampleBatch.stack` reads the series."""

    node_indices: np.ndarray
    reserved: np.ndarray
    masked: np.ndarray
    t: int


def _rows(samples: list[SubgraphSample]) -> int:
    return sum(s.node_indices.size for s in samples)


@dataclass
class SampleBatch:
    """Subgraph samples stacked into one disjoint-union graph: one Adam
    batch, or a chunk of consecutive batches that :meth:`batches` splits.

    Rows follow the samples in order. ``features`` is (rows, history) with
    columns oldest-to-newest, ``target`` the horizon-ahead value per row,
    and ``mask`` a (rows, 1) column: 1.0 on reserved rows, 0.0 on masked
    ones. ``operator`` is the block-diagonal forward transition matrix P
    of the samples' subgraphs, gathered by one
    :func:`gapcast.graph.subgraph` call and row-normalised by one
    :func:`gapcast.graph.normalize` call, so one forward pass serves a whole
    batch. A node of a sample with n_s nodes in a batch of B samples weighs
    1 / (B n_s): a batch's weighted loss is the mean over its B samples of
    their per-sample losses, and a large sample counts no more than a small
    one. ``bounds`` holds each batch's first row, then the row count.
    """

    features: np.ndarray
    mask: np.ndarray
    target: np.ndarray
    operator: sparse.csr_array
    weights: np.ndarray
    bounds: tuple[int, ...]

    @classmethod
    def stack(
        cls, batches: list[list[SubgraphSample]], values: np.ndarray, adjacency, cfg: TrainConfig
    ) -> "SampleBatch":
        """The ``batches`` of samples drawn from the graph with ``adjacency``,
        stacked in order, with their windows of ``cfg.history`` steps and
        targets ``cfg.horizon`` steps ahead read from ``values`` (steps x
        nodes). The one place training reads the series."""
        samples = [s for batch in batches for s in batch]
        counts = [len(batch) for batch in batches]
        sizes = np.array([s.node_indices.size for s in samples])
        nodes = np.concatenate([s.node_indices for s in samples])
        ends = np.repeat([s.t for s in samples], sizes)
        reserved = [np.arange(s.node_indices.size) < s.reserved.size for s in samples]
        return cls(
            features=values[ends[:, None] + np.arange(1 - cfg.history, 1), nodes[:, None]],
            mask=np.concatenate(reserved)[:, None].astype(np.float64),
            target=values[ends + cfg.horizon, nodes][:, None],
            operator=normalize(subgraph(adjacency, [s.node_indices for s in samples])),
            weights=np.repeat(1.0 / sizes / np.repeat(counts, counts), sizes)[:, None],
            bounds=tuple(np.cumsum([0] + [_rows(batch) for batch in batches]).tolist()),
        )

    def batches(self) -> list["SampleBatch"]:
        """Each batch of the stack: views of its rows, and its diagonal block
        of ``operator``, which holds the entries, in the same order, that a
        stack of that batch alone would hold."""
        return [
            SampleBatch(
                features=self.features[start:stop],
                mask=self.mask[start:stop],
                target=self.target[start:stop],
                operator=diagonal_block(self.operator, start, stop),
                weights=self.weights[start:stop],
                bounds=(0, stop - start),
            )
            for start, stop in zip(self.bounds, self.bounds[1:])
        ]


def valid_time_steps(
    values: np.ndarray, history: int, horizon: int, columns: np.ndarray
) -> np.ndarray:
    """Time indices t of the windows of raw ``values`` that
    :func:`_observed_input` accepts on the given columns and whose
    t+horizon target row is finite there: the window rule of training.
    Both inference entries, :func:`gapcast.evaluate.collect_predictions`
    and :func:`predict_full`, apply its window rule to their input before
    the one engine, :func:`_predict_observed`, runs."""
    steps = values.shape[0]
    if steps < history + horizon:
        raise DataError(
            f"series has {steps} steps, need at least {history + horizon} "
            f"for history={history}, horizon={horizon}"
        )
    ts = np.arange(history - 1, steps - horizon)
    _, accepted = _observed_input(values, columns, ts, history)
    finite = np.isfinite(values[:, columns]).all(axis=1)
    valid = ts[accepted & finite[ts + horizon]]
    if valid.size == 0:
        raise DataError("no gap-free windows in the series")
    return valid


def draw_sample(
    graph: RoadGraph,
    cfg: TrainConfig,
    rng: np.random.Generator,
    valid_steps: np.ndarray,
) -> SubgraphSample:
    """One draw over the observable set, at a time step drawn from
    ``valid_steps`` (see :func:`valid_time_steps`). It reads no series
    value, and names no hidden node.

    With mask_training, a random subgraph is masked: sample size n_s is
    uniform on [max(2, N_o // 3), N_o] and the masked count uniform on
    [1, n_s - 1], so both groups are nonempty. Without it the sample is
    every observable node, in order, with nothing masked (the no-masking
    baseline regime).
    """
    t = int(valid_steps[rng.integers(valid_steps.size)])
    nodes, n_m = graph.observable, 0
    if cfg.mask_training:
        if nodes.size < 2:
            raise DataError("need at least 2 observable nodes to sample and mask")
        n_s = int(rng.integers(max(2, nodes.size // 3), nodes.size + 1))
        n_m = int(rng.integers(1, n_s))
        nodes = rng.permutation(nodes)[:n_s]
    reserved, masked = nodes[: nodes.size - n_m], nodes[nodes.size - n_m :]
    return SubgraphSample(node_indices=nodes, reserved=reserved, masked=masked, t=t)


def compute_loss(
    batch: SampleBatch, fwd: ForwardPass, cfg: TrainConfig
) -> tuple[Tensor, Tensor, Tensor]:
    """(prediction loss, recovery loss, total) for one batch.

    The prediction loss is the NIG NLL with its evidence penalty over
    every sampled node, reserved and masked alike. Recovery reconstructs
    the masked input window. Node means are weighted by
    ``batch.weights``, so a batch gets its samples' mean.
    """
    target = ad.constant(batch.target)
    weights = ad.constant(batch.weights)
    j_pre = nig_nll(
        fwd.gamma, fwd.nu, fwd.alpha, fwd.beta, target,
        evidence_reg=cfg.model.evidence_reg, weights=weights,
    )
    j_rec = weighted_mean(ad.square(ad.sub(fwd.recovery, fwd.h0)), weights)
    j_total = ad.add(j_pre, ad.scale(j_rec, cfg.loss_alpha))
    return j_pre, j_rec, j_total


@dataclass(frozen=True)
class TrainedModel:
    """Frozen training artifact: parameters, architecture, and the scaler."""

    params: dict[str, Tensor]
    model_cfg: ModelConfig
    history: int
    horizon: int
    scaler: Scaler


@dataclass
class TrainResult:
    model: TrainedModel
    trace: list[dict]
    optimizer_steps: int


# Rows of one stacked inference pass (windows x nodes), and of one chunk
# of training batches prepared together. It bounds the working set: at
# hidden width 48 one activation is 0.4 MB. On 2 CPUs with OpenBLAS, 1024
# inference rows ran as fast as 2048 at n=200 and faster at n=40, with half
# the extra peak memory; 4096 rows ran slower.
INFERENCE_ROWS = 1024


def train(
    graph: RoadGraph,
    series: SpeedSeries,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Run the sampling/masking loop: I iterations of S subgraph draws,
    batched with gradient averaging into Adam steps. Each batch runs as
    one forward pass over the disjoint union of its samples. The batches
    are prepared in chunks of at most ``INFERENCE_ROWS`` rows (at least one
    batch): a chunk is stacked and normalised once, and each of its batches
    takes its rows and its diagonal block. The rng serves only the draws,
    made one sample at a time in iteration order, so a run does not depend
    on the chunking.

    Deterministic for a fixed rng. Raises TrainingDiverged on a non-finite
    loss. The returned trace has one row per iteration with the mean
    prediction/recovery/total losses. Training takes the windows of
    :func:`valid_time_steps`. A graph with node ids must name the series'
    columns in order.
    """
    if graph.node_ids:
        check_node_ids(graph.node_ids, series.node_ids, "the graph")
    scaler = Scaler.fit(series.values, graph.observable)
    valid_steps = valid_time_steps(series.values, cfg.history, cfg.horizon, graph.observable)
    values = scaler.transform(fill_small_gaps(series.values))

    params = init_params(cfg.model, cfg.history, rng)
    opt = Adam(params, lr=cfg.lr)

    def chunks():
        """Every batch as (iteration, samples), drawn in order and grouped
        into chunks of whole batches."""
        chunk, rows = [], 0
        for iteration in range(cfg.iterations):
            for start in range(0, cfg.samples_per_iter, cfg.batch_size):
                size = min(cfg.batch_size, cfg.samples_per_iter - start)
                members = [draw_sample(graph, cfg, rng, valid_steps) for _ in range(size)]
                if chunk and rows + _rows(members) > INFERENCE_ROWS:
                    yield chunk
                    chunk, rows = [], 0
                chunk.append((iteration, members))
                rows += _rows(members)
        yield chunk

    sums = np.zeros((cfg.iterations, 3))  # j_pre, j_rec, j_total
    for chunk in chunks():
        stacked = SampleBatch.stack([members for _, members in chunk], values, graph.adjacency, cfg)
        for (iteration, members), batch in zip(chunk, stacked.batches()):
            with Tape() as tape:
                fwd = forward(
                    params,
                    cfg.model,
                    ad.constant(batch.features),
                    ad.constant(batch.mask),
                    batch.operator,
                )
                losses = compute_loss(batch, fwd, cfg)
                j_total = losses[2]
                if not np.isfinite(j_total.item()):
                    raise TrainingDiverged(iteration, j_total.item())
                tape.backward(j_total)
            opt.step()
            sums[iteration] += [loss.item() * len(members) for loss in losses]
    count = cfg.samples_per_iter
    trace = [
        {"iteration": i, "j_pre": pre / count, "j_rec": rec / count, "j_total": total / count}
        for i, (pre, rec, total) in enumerate(sums.tolist())
    ]
    model = TrainedModel(
        params=params,
        model_cfg=cfg.model,
        history=cfg.history,
        horizon=cfg.horizon,
        scaler=scaler,
    )
    return TrainResult(model=model, trace=trace, optimizer_steps=opt.t)


@dataclass
class FullPrediction:
    """Per-node NIG outputs in speed units, so uncertainties are variances."""

    evidential: EvidentialOutput


def _observed_input(
    values: np.ndarray, observable: np.ndarray, ends: np.ndarray, history: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``observable`` columns of ``values`` after :func:`fill_small_gaps`,
    and a mask over ``ends``: True where the window of ``history`` steps
    ending there is gap-free after the fill and its first and last rows
    were gap-free before it. This is the one window rule of training and
    inference. A filled value then comes from two observed steps of its own
    window, never from past its end, so a window is filled alike whether it
    is cut from a longer series or given alone.
    """
    observed = values[:, observable]
    raw = np.isfinite(observed).all(axis=1)
    observed = fill_small_gaps(observed)
    gaps = np.concatenate([[0], np.cumsum(~np.isfinite(observed).all(axis=1))])
    filled = gaps[ends + 1] == gaps[ends + 1 - history]
    return observed, filled & raw[ends] & raw[ends + 1 - history]


def _predict_observed(
    graph: RoadGraph, observed: np.ndarray, ends: np.ndarray, model: TrainedModel
) -> EvidentialOutput:
    """The one inference engine: predict every node from each window of
    ``history`` steps of the ``observed`` columns of :func:`_observed_input`
    that ends at a step in ``ends``, each an end it accepts. Its two
    entries are :func:`gapcast.evaluate.collect_predictions` for a series
    and :func:`predict_full` for one window. Missing-location rows get zero
    input and a zero mask. Returns a (windows, n) record in speed units.

    The graph is normalized once. The windows run in chunks of
    ``INFERENCE_ROWS // n`` (at least one), each as one tapeless forward
    pass over the block-diagonal union of that many copies of the forward
    matrix, built once per call by :func:`gapcast.graph.subgraph` (the
    graph's own matrix when a chunk holds one window). A short last chunk
    runs on the :func:`gapcast.graph.diagonal_block` sliced from the one
    union.
    """
    t_hist, n = model.history, graph.n
    scaled = model.scaler.transform(observed)
    mask = np.zeros((n, 1))
    mask[graph.observable] = 1.0
    p = normalize(graph.adjacency)
    per_pass = min(max(1, INFERENCE_ROWS // n), ends.size)
    full = p if per_pass == 1 else subgraph(p, [np.arange(n)] * per_pass)
    offsets = np.arange(1 - t_hist, 1)
    std = model.scaler.std
    parts = []
    for start in range(0, ends.size, per_pass):
        chunk = ends[start : start + per_pass]
        count = chunk.size
        x = np.zeros((count, n, t_hist))
        x[:, graph.observable] = scaled[chunk[:, None] + offsets].transpose(0, 2, 1)
        fwd = forward(
            model.params,
            model.model_cfg,
            ad.constant(x.reshape(count * n, t_hist)),
            ad.constant(np.tile(mask, (count, 1))),
            full if count == per_pass else diagonal_block(full, 0, count * n),
        )
        parts.append((
            model.scaler.inverse(fwd.gamma.values).reshape(count, n),
            fwd.nu.values.reshape(count, n),
            fwd.alpha.values.reshape(count, n),
            (fwd.beta.values * std * std).reshape(count, n),
        ))
    # Joined after the passes: output arrays allocated before them raised
    # the peak RSS of a 40-node sensing episode by about 0.4 MB.
    gamma, nu, alpha, beta = (np.concatenate(p) for p in zip(*parts))
    return EvidentialOutput(gamma=gamma, nu=nu, alpha_nig=alpha, beta=beta)


def predict_full(
    graph: RoadGraph, window: np.ndarray, model: TrainedModel
) -> FullPrediction:
    """Predict every node from the last ``history`` observed steps: the
    one-window entry to :func:`_predict_observed`, the engine that
    :func:`gapcast.evaluate.collect_predictions` runs over a series.

    ``window`` is (history, n) in speed units. A short interior gap is
    filled, while a gap at its first or last step cannot be and is
    refused, as is a gap longer than ``MAX_FILL_GAP`` steps
    (:func:`_observed_input`). Missing-location columns are ignored.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (model.history, graph.n):
        raise DataError(f"window must be ({model.history}, {graph.n}), got {window.shape}")
    ends = np.array([model.history - 1])
    observed, accepted = _observed_input(window, graph.observable, ends, model.history)
    if not accepted[0]:
        raise DataError("window has gaps at observable locations")
    ev = _predict_observed(graph, observed, ends, model)
    return FullPrediction(EvidentialOutput(ev.gamma[0], ev.nu[0], ev.alpha_nig[0], ev.beta[0]))


def save_model(path, model: TrainedModel, extra_meta: dict | None = None) -> None:
    meta = {
        "model_cfg": asdict(model.model_cfg),
        "history": model.history,
        "horizon": model.horizon,
        "scaler": {"mean": model.scaler.mean, "std": model.scaler.std},
    }
    if extra_meta:
        meta["extra"] = extra_meta
    save_checkpoint(path, model.params, meta)


def load_model(path) -> tuple[TrainedModel, dict]:
    """Read a :func:`save_model` file back; a meta key that is missing or
    malformed raises CheckpointError naming it."""
    params, meta = load_checkpoint(path)

    def meta_value(key, build):
        try:
            value = meta[key]
        except (KeyError, TypeError):  # TypeError: the meta is not a JSON object
            raise CheckpointError(f"checkpoint meta has no {key!r}") from None
        try:
            return build(value)
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"checkpoint meta {key!r} is malformed: {err}") from None

    model = TrainedModel(
        params=params,
        model_cfg=meta_value("model_cfg", lambda cfg: ModelConfig(**cfg)),
        history=meta_value("history", int),
        horizon=meta_value("horizon", int),
        scaler=meta_value("scaler", lambda scaler: Scaler(**scaler)),
    )
    return model, meta.get("extra", {})
