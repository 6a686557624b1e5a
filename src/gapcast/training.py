"""Subgraph-sampling training: random masked subgraphs of the observable
set, prediction + recovery loss assembly, Adam optimization, and
full-network prediction with per-location uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tape, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .data import DataError, SpeedSeries, fill_small_gaps
from .graph import RoadGraph, normalize, subgraph
from .model import EvidentialOutput, ForwardPass, ModelConfig, forward, init_params, nig_nll

__all__ = [
    "TrainConfig",
    "SubgraphSample",
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
    point_loss: str = "nll"  # "nll" or "mse" (ablation)
    mask_training: bool = True
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.batch_size < 1 or self.history < 1 or self.horizon < 1:
            raise ValueError("batch_size, history, and horizon must be >= 1")
        if self.iterations < 1 or self.samples_per_iter < 1:
            raise ValueError("iterations and samples_per_iter must be >= 1")
        if self.loss_alpha < 0:
            raise ValueError("loss_alpha must be >= 0")
        if self.point_loss not in ("nll", "mse"):
            raise ValueError(f"unknown point loss {self.point_loss!r}")


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
    horizon-ahead value per node.
    """

    node_indices: np.ndarray
    reserved: np.ndarray
    masked: np.ndarray
    mask: np.ndarray
    adjacency: np.ndarray
    features: np.ndarray
    target: np.ndarray
    t: int


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
    bad = np.cumsum(~finite)
    ts = np.arange(history - 1, steps - horizon)
    window_ok = (bad[ts] - np.where(ts - history >= 0, bad[ts - history], 0)) == 0
    valid = ts[window_ok & finite[ts + horizon]]
    if valid.size == 0:
        raise DataError("no gap-free training windows available")
    return valid


def draw_sample(
    graph: RoadGraph,
    values: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    valid_steps: np.ndarray | None = None,
) -> SubgraphSample:
    """One masked-subgraph draw over the observable set.

    Sample size n_s is uniform on [max(2, N_o // 3), N_o], the masked count
    uniform on [1, n_s - 1], so both groups are nonempty; with
    mask_training=False the sample is the full node set with nothing masked
    (the no-masking baseline regime).
    """
    if valid_steps is None:
        valid_steps = valid_time_steps(values, cfg.history, cfg.horizon, graph.observable)
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
        adjacency=subgraph(graph, nodes),
        features=features,
        target=target,
        t=t,
    )


def compute_loss(
    sample: SubgraphSample, fwd: ForwardPass, cfg: TrainConfig
) -> tuple[Tensor, Tensor, Tensor]:
    """(prediction loss, recovery loss, total) for one sample.

    The prediction loss covers every sampled node, reserved and masked
    alike. Recovery reconstructs the masked input window.
    """
    target = ad.constant(sample.target)
    if cfg.point_loss == "nll":
        j_pre = nig_nll(
            fwd.gamma, fwd.nu, fwd.alpha, fwd.beta, target,
            evidence_reg=cfg.model.evidence_reg,
        )
    else:
        j_pre = ad.reduce_mean(ad.square(ad.sub(fwd.gamma, target)))
    j_rec = ad.reduce_mean(ad.square(ad.sub(fwd.recovery, fwd.h0)))
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
    batched with gradient averaging into Adam steps.

    Deterministic for a fixed rng. Raises TrainingDiverged on a non-finite
    loss. The returned trace has one row per iteration with the mean
    prediction/recovery/total losses.
    """
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
            batch = samples[start : start + cfg.batch_size]
            opt.zero_grad()
            with Tape() as tape:
                total: Tensor | None = None
                for sample in batch:
                    trans = normalize(sample.adjacency)
                    fwd = forward(
                        params,
                        cfg.model,
                        ad.constant(sample.features),
                        ad.constant(sample.mask),
                        trans,
                    )
                    j_pre, j_rec, j_total = compute_loss(sample, fwd, cfg)
                    sums["j_pre"] += j_pre.item()
                    sums["j_rec"] += j_rec.item()
                    sums["j_total"] += j_total.item()
                    total = j_total if total is None else ad.add(total, j_total)
                batch_loss = ad.scale(total, 1.0 / len(batch))
                if not np.isfinite(batch_loss.item()):
                    raise TrainingDiverged(iteration, batch_loss.item())
                tape.backward(batch_loss)
            opt.step()
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
    """Per-node outputs in speed units; uncertainties are variances."""

    gamma: np.ndarray
    epistemic: np.ndarray
    aleatoric: np.ndarray
    evidential: EvidentialOutput


def predict_full(
    graph: RoadGraph, window: np.ndarray, model: TrainedModel
) -> FullPrediction:
    """Predict every node from the last ``history`` observed steps.

    ``window`` is (history, n) in speed units; missing-location columns are
    ignored (their input rows are zeroed and their mask rows are 0).
    """
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (model.history, graph.n):
        raise DataError(
            f"window must be ({model.history}, {graph.n}), got {window.shape}"
        )
    if not np.isfinite(window[:, graph.observable]).all():
        raise DataError("window has gaps at observable locations")
    x = np.zeros((graph.n, model.history))
    x[graph.observable] = model.scaler.transform(window[:, graph.observable]).T
    mask = np.zeros((graph.n, model.history))
    mask[graph.observable] = 1.0
    trans = normalize(graph.adjacency)
    fwd = forward(model.params, model.model_cfg, ad.constant(x), ad.constant(mask), trans)
    ev = fwd.evidential().rescaled(model.scaler.mean, model.scaler.std)
    return FullPrediction(
        gamma=ev.gamma,
        epistemic=ev.epistemic,
        aleatoric=ev.aleatoric,
        evidential=ev,
    )


def save_model(path, model: TrainedModel, extra_meta: dict | None = None) -> None:
    meta = {
        "model_cfg": {
            "hidden_dim": model.model_cfg.hidden_dim,
            "layers": model.model_cfg.layers,
            "cheb_order": model.model_cfg.cheb_order,
            "evidence_reg": model.model_cfg.evidence_reg,
        },
        "history": model.history,
        "horizon": model.horizon,
        "scaler": {"mean": model.scaler.mean, "std": model.scaler.std},
    }
    if extra_meta:
        meta["extra"] = extra_meta
    save_checkpoint(path, model.params, meta)


def load_model(path) -> tuple[TrainedModel, dict]:
    params, meta = load_checkpoint(path)
    model = TrainedModel(
        params=params,
        model_cfg=ModelConfig(**meta["model_cfg"]),
        history=int(meta["history"]),
        horizon=int(meta["horizon"]),
        scaler=Scaler(**meta["scaler"]),
    )
    return model, meta.get("extra", {})
