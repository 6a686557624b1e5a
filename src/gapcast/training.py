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
from .graph import RoadGraph, TransitionPair, block_diagonal, normalize, subgraph, union_pair
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
    "gap_free_history",
    "valid_time_steps",
    "draw_sample",
    "compute_loss",
    "train",
    "predict_windows",
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
    """One training draw: an ordered node subset, its mask, and tensors.

    ``node_indices`` are graph-level indices; ``reserved`` keep their
    features, ``masked`` have them zeroed through the mask. ``features``
    is (n_s, history) with columns oldest-to-newest; ``target`` is the
    horizon-ahead value per node; ``adjacency`` is the CSR subgraph.
    """

    node_indices: np.ndarray
    reserved: np.ndarray
    masked: np.ndarray
    mask: np.ndarray
    adjacency: sparse.csr_array
    features: np.ndarray
    target: np.ndarray
    t: int

    @property
    def weights(self) -> np.ndarray:
        """Per-node loss weights (n_s x 1) that make the loss a plain mean."""
        n = self.target.shape[0]
        return np.full((n, 1), 1.0 / n)


@dataclass
class SampleBatch:
    """Subgraph samples stacked into one disjoint-union graph.

    Rows follow the samples in order and ``adjacency`` is block-diagonal,
    so one forward pass serves the whole batch. A node of a sample with
    n_s nodes weighs 1 / (B n_s): the weighted loss is the mean over the B
    samples of their per-sample losses, and a large sample counts no more
    than a small one.
    """

    features: np.ndarray
    mask: np.ndarray
    target: np.ndarray
    adjacency: sparse.csr_array
    weights: np.ndarray

    @classmethod
    def stack(cls, samples: list[SubgraphSample]) -> "SampleBatch":
        return cls(
            features=np.vstack([s.features for s in samples]),
            mask=np.vstack([s.mask for s in samples]),
            target=np.vstack([s.target for s in samples]),
            adjacency=block_diagonal([s.adjacency for s in samples]),
            weights=np.vstack([s.weights for s in samples]) / len(samples),
        )


def gap_free_history(finite: np.ndarray, ends: np.ndarray, history: int) -> np.ndarray:
    """Mask over window end steps: True where ``finite``, a per-step mask
    of rows with every observable value finite, holds on the ``history``
    steps up to and including each end.

    The one window rule: training and evaluation both take only windows
    whose observable history has no gap.
    """
    gaps = np.concatenate([[0], np.cumsum(~finite)])
    return gaps[ends + 1] == gaps[ends + 1 - history]


def valid_time_steps(
    values: np.ndarray, history: int, horizon: int, columns: np.ndarray
) -> np.ndarray:
    """Time indices t whose [t-history+1, t] window and t+horizon target are
    gap-free on the given columns."""
    steps = values.shape[0]
    if steps < history + horizon:
        raise DataError(
            f"series has {steps} steps, need at least {history + horizon} "
            f"for history={history}, horizon={horizon}"
        )
    finite = np.isfinite(values[:, columns]).all(axis=1)
    ts = np.arange(history - 1, steps - horizon)
    valid = ts[gap_free_history(finite, ts, history) & finite[ts + horizon]]
    if valid.size == 0:
        raise DataError("no gap-free training windows available")
    return valid


def draw_sample(
    graph: RoadGraph,
    values: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    valid_steps: np.ndarray,
) -> SubgraphSample:
    """One masked-subgraph draw over the observable set, at a time step
    drawn from ``valid_steps`` (see :func:`valid_time_steps`).

    Sample size n_s is uniform on [max(2, N_o // 3), N_o], the masked count
    uniform on [1, n_s - 1], so both groups are nonempty; with
    mask_training=False the sample is the full node set with nothing masked
    (the no-masking baseline regime).
    """
    t = int(valid_steps[rng.integers(valid_steps.size)])

    if cfg.mask_training:
        n_obs = graph.observable.size
        if n_obs < 2:
            raise DataError("need at least 2 observable nodes to sample and mask")
        n_s = int(rng.integers(max(2, n_obs // 3), n_obs + 1))
        n_m = int(rng.integers(1, n_s))
        nodes = rng.permutation(graph.observable)[:n_s]
        reserved = nodes[: n_s - n_m]
        masked = nodes[n_s - n_m :]
    else:
        nodes = np.arange(graph.n, dtype=np.int64)
        reserved = nodes
        masked = np.empty(0, dtype=np.int64)

    mask = np.zeros((nodes.size, cfg.history))
    mask[: reserved.size] = 1.0
    features = values[t - cfg.history + 1 : t + 1, nodes].T.copy()
    target = values[t + cfg.horizon, nodes][:, None].copy()
    return SubgraphSample(
        node_indices=nodes,
        reserved=reserved,
        masked=masked,
        mask=mask,
        adjacency=subgraph(graph.adjacency, nodes),
        features=features,
        target=target,
        t=t,
    )


def compute_loss(
    sample: SubgraphSample | SampleBatch, fwd: ForwardPass, cfg: TrainConfig
) -> tuple[Tensor, Tensor, Tensor]:
    """(prediction loss, recovery loss, total) for one sample or batch.

    The prediction loss is the NIG NLL with its evidence penalty over
    every sampled node, reserved and masked alike. Recovery reconstructs
    the masked input window. Node means are weighted by
    ``sample.weights``, so a batch gets its samples' mean.
    """
    target = ad.constant(sample.target)
    weights = ad.constant(sample.weights)
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


def train(
    graph: RoadGraph,
    series: SpeedSeries,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Run the sampling/masking loop: I iterations of S subgraph draws,
    batched with gradient averaging into Adam steps. Each batch runs as
    one forward pass over the disjoint union of its samples.

    Deterministic for a fixed rng. Raises TrainingDiverged on a non-finite
    loss. The returned trace has one row per iteration with the mean
    prediction/recovery/total losses. A graph with node ids must name the
    series' columns in order.
    """
    if graph.node_ids:
        check_node_ids(graph.node_ids, series.node_ids, "the graph")
    scaler = Scaler.fit(series.values, graph.observable)
    values = scaler.transform(fill_small_gaps(series.values))
    valid_steps = valid_time_steps(values, cfg.history, cfg.horizon, graph.observable)

    params = init_params(cfg.model, cfg.history, rng)
    opt = Adam(params, lr=cfg.lr)
    trace: list[dict] = []
    for iteration in range(cfg.iterations):
        samples = [
            draw_sample(graph, values, cfg, rng, valid_steps)
            for _ in range(cfg.samples_per_iter)
        ]
        sums = {"j_pre": 0.0, "j_rec": 0.0, "j_total": 0.0}
        for start in range(0, len(samples), cfg.batch_size):
            members = samples[start : start + cfg.batch_size]
            batch = SampleBatch.stack(members)
            with Tape() as tape:
                fwd = forward(
                    params,
                    cfg.model,
                    ad.constant(batch.features),
                    ad.constant(batch.mask),
                    normalize(batch.adjacency),
                )
                losses = compute_loss(batch, fwd, cfg)
                j_total = losses[2]
                if not np.isfinite(j_total.item()):
                    raise TrainingDiverged(iteration, j_total.item())
                tape.backward(j_total)
            opt.step()
            for key, loss in zip(("j_pre", "j_rec", "j_total"), losses):
                sums[key] += loss.item() * len(members)
        trace.append(
            {
                "iteration": iteration,
                "j_pre": sums["j_pre"] / len(samples),
                "j_rec": sums["j_rec"] / len(samples),
                "j_total": sums["j_total"] / len(samples),
            }
        )
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


def predict_windows(
    graph: RoadGraph, trans: TransitionPair, windows: np.ndarray, model: TrainedModel
) -> EvidentialOutput:
    """Predict every node for each of a (W, history, n) stack of windows.

    ``trans`` is the graph's transition pair, so a caller predicting many
    stacks normalizes the graph once. The W windows run as one tapeless
    forward pass over the block-diagonal union of W copies of the forward
    matrix, whose transpose is the union's backward matrix. ``trans`` may
    also be that union's pair already (any pair of size W n), so a caller
    predicting many stacks of W windows builds the union once.
    Missing-location columns are ignored (their input rows are zeroed and
    their mask rows are 0). Returns a (W, n) record in speed units.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (model.history, graph.n) or not len(windows):
        raise DataError(
            f"windows must be (W >= 1, {model.history}, {graph.n}), got {windows.shape}"
        )
    observed = windows[:, :, graph.observable]
    if not np.isfinite(observed).all():
        raise DataError("window has gaps at observable locations")
    count, n = windows.shape[0], graph.n
    x = np.zeros((count, n, model.history))
    x[:, graph.observable] = model.scaler.transform(observed).transpose(0, 2, 1)
    mask = np.zeros((n, model.history))
    mask[graph.observable] = 1.0
    if trans.forward.shape[0] != count * n:
        trans = union_pair(trans, count)
    fwd = forward(
        model.params,
        model.model_cfg,
        ad.constant(x.reshape(count * n, model.history)),
        ad.constant(np.tile(mask, (count, 1))),
        trans,
    )
    std = model.scaler.std
    return EvidentialOutput(
        gamma=model.scaler.inverse(fwd.gamma.values).reshape(count, n),
        nu=fwd.nu.values.reshape(count, n),
        alpha_nig=fwd.alpha.values.reshape(count, n),
        beta=(fwd.beta.values * std * std).reshape(count, n),
    )


def predict_full(
    graph: RoadGraph, window: np.ndarray, model: TrainedModel
) -> FullPrediction:
    """Predict every node from the last ``history`` observed steps.

    ``window`` is (history, n) in speed units; this is
    :func:`predict_windows` on a stack of one window.
    """
    ev = predict_windows(graph, normalize(graph.adjacency), np.asarray(window)[None], model)
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
