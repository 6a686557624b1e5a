"""The inductive diffusion-convolution forecaster.

Masked input layer, a stack of diffusion graph-convolution layers whose
second adds its own input (the first layer's output) back in, and two
heads: an evidential Normal-Inverse-Gamma head (whose location doubles as
the point prediction) and a linear recovery head that reconstructs the
input window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import digamma, expit, gammaln

from . import autodiff as ad
from . import graph
from .autodiff import Tensor

__all__ = [
    "ModelConfig",
    "EvidentialOutput",
    "ForwardPass",
    "init_params",
    "input_layer",
    "dgcn_layer",
    "nig_link",
    "forward",
    "nig_nll",
    "nig_nll_values",
    "total_loss",
]

# Strictly positive floor added after softplus so nu > 0, alpha > 1, beta > 0
# hold even when the raw activation underflows.
EVIDENCE_FLOOR = 1e-10
# Weight lambda of the evidence penalty |y - gamma| (2 nu + alpha) in the
# prediction loss (Amini et al. 2020, arXiv 1910.02600).
EVIDENCE_REG = 0.01


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; layers >= 2 so the layer-1 residual target exists."""

    hidden_dim: int = 100
    layers: int = 3
    cheb_order: int = 2

    def __post_init__(self):
        for name in ("hidden_dim", "layers", "cheb_order"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.layers < 2:
            raise ValueError("need at least 2 diffusion layers for the residual")
        if self.cheb_order < 1:
            raise ValueError("Chebyshev order must be >= 1")


def init_params(
    cfg: ModelConfig, history: int, rng: np.random.Generator
) -> dict[str, Tensor]:
    """Glorot-initialized parameter dict keyed by stable names.

    Layer l maps width_in -> hidden for each Chebyshev order k and both
    diffusion directions: ``theta_f_*`` weights the forward-transition
    terms, ``theta_b_*`` the backward ones. The backward weight of each
    (layer, k) is drawn first; another draw order changes every seeded run.
    Heads map hidden -> 4 (evidential) and hidden -> history
    (recovery). Biases start at zero.
    """
    params: dict[str, Tensor] = {}
    width_in = history
    for layer in range(1, cfg.layers + 1):
        for k in range(1, cfg.cheb_order + 1):
            for direction in ("b", "f"):
                name = f"theta_{direction}_l{layer}_k{k}"
                params[name] = ad.parameter(
                    ad.glorot_uniform(rng, width_in, cfg.hidden_dim)
                )
        width_in = cfg.hidden_dim
    params["head_w"] = ad.parameter(ad.glorot_uniform(rng, cfg.hidden_dim, 4))
    params["head_b"] = ad.parameter(np.zeros((1, 4)))
    params["rec_w"] = ad.parameter(ad.glorot_uniform(rng, cfg.hidden_dim, history))
    params["rec_b"] = ad.parameter(np.zeros((1, history)))
    return params


@dataclass
class EvidentialOutput:
    """Per-location NIG parameters with derived uncertainty decomposition.

    gamma is the predicted mean (point prediction), nu the evidence
    strength, alpha_nig > 1 the shape, beta > 0 the scale. The four arrays
    share one shape and keep it: (nodes,) for one window, (windows, nodes)
    for a stack of windows.
    """

    gamma: np.ndarray
    nu: np.ndarray
    alpha_nig: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, f.name), dtype=np.float64) for f in fields(self)]
        if len({a.shape for a in arrays}) != 1:
            raise ad.DimensionError(f"NIG parameter shapes differ: {[a.shape for a in arrays]}")
        self.gamma, self.nu, self.alpha_nig, self.beta = arrays
        if not all(np.isfinite(a).all() for a in arrays):
            raise ad.DomainError("NIG parameters must be finite")
        if (self.nu <= 0).any() or (self.beta <= 0).any():
            raise ad.DomainError("nu and beta must be strictly positive")
        if (self.alpha_nig <= 1).any():
            raise ad.DomainError("alpha_nig must exceed 1")

    @property
    def epistemic(self) -> np.ndarray:
        """Model-knowledge variance beta / (nu (alpha - 1)); shrinks with evidence."""
        return self.beta / (self.nu * (self.alpha_nig - 1.0))

    @property
    def aleatoric(self) -> np.ndarray:
        """Irreducible data-noise variance beta / (alpha - 1)."""
        return self.beta / (self.alpha_nig - 1.0)


@dataclass
class ForwardPass:
    """Forward results, one row per node: ``nig`` is the (nodes, 4) record
    ``[gamma | nu | alpha | beta]`` of :func:`nig_link`, ``hidden`` the last
    diffusion layer's output, from which :func:`total_loss` runs the
    recovery head, and ``h0`` the masked input window it reconstructs."""

    nig: Tensor
    hidden: Tensor
    h0: Tensor


def input_layer(x: np.ndarray, mask: np.ndarray) -> Tensor:
    """H_0, the constant tensor layer 1 records as its input: features
    (nodes, history) gated by the (nodes, 1) mask column, masked rows
    all-zero."""
    return ad.constant(x * mask)


def dgcn_layer(
    h: Tensor,
    ops: tuple,
    layer: int,
    params: dict[str, Tensor],
    cfg: ModelConfig,
) -> Tensor:
    """One diffusion layer: Chebyshev expansion over both transition
    directions, the forward matrix P and its transpose, given together as
    ``ops = (P, P.T)``, linearly combined through the layer's weights.

    The second layer applies relu and adds its own input, the first
    layer's output, back in, so fully masked rows keep a signal path.

    The layer is one tape op. Its backward pass adds the gradients up in
    the order a tape of the separate ops would (the residual's first, then
    the backward direction's terms, then the forward one's, each running
    the Chebyshev recursion in reverse), so results are bitwise those of
    the separate ops.
    """
    order = cfg.cheb_order
    p, p_t = ops
    # per direction: (operator transpose, Chebyshev terms, weight tensors)
    directions = [
        (
            op_t,
            graph.chebyshev_terms(op, h.values, order),
            [params[f"theta_{d}_l{layer}_k{k}"] for k in range(1, order + 1)],
        )
        for d, op, op_t in (("f", p, p_t), ("b", p_t, p))
    ]
    (_, zf, tf), (_, zb, tb) = directions
    total = None
    for k in range(order):
        part = zf[k] @ tf[k].values + zb[k] @ tb[k].values
        total = part if total is None else total + part
    residual = layer == 2
    out = np.maximum(total, 0.0) + h.values if residual else total

    def rule(g: np.ndarray):
        acc = g if residual else None
        if residual:
            g = g * (total > 0.0)
        grads: list[np.ndarray | None] = [None]
        for _, terms, weights in directions:
            grads += [z.T @ g if w.requires_grad else None for z, w in zip(terms, weights)]
        if h.requires_grad:
            for op_t, _, weights in reversed(directions):
                gz = [g @ w.values.T for w in weights]
                for i in range(order - 1, 0, -1):  # Z_k = 2 abar Z_{k-1} - Z_{k-2}
                    if i == 1:
                        acc = -gz[i] if acc is None else acc - gz[i]
                    else:
                        gz[i - 2] = gz[i - 2] - gz[i]
                    gz[i - 1] = gz[i - 1] + op_t @ (gz[i] * 2.0)
                z1 = op_t @ gz[0]
                acc = z1 if acc is None else acc + z1
            grads[0] = acc
        return tuple(grads)

    return ad.record(out, (h, *tf, *tb), rule)


def nig_link(raw: Tensor, head_b: Tensor) -> Tensor:
    """The (rows, 4) NIG record ``[gamma | nu | alpha | beta]`` of the
    evidential head's product ``raw`` plus its (1, 4) bias: gamma passes
    through; nu, alpha and beta are softplus plus ``EVIDENCE_FLOOR`` (alpha
    plus 1 more), so nu > 0, alpha > 1 and beta > 0. One tape op, bitwise
    the bias add, column slices, softplus and scalar adds it replaces."""
    if raw.shape[1] != 4 or head_b.shape != (1, 4):
        raise ad.DimensionError(f"nig_link takes (n, 4), (1, 4), got {raw.shape}, {head_b.shape}")
    pre = raw.values + head_b.values
    out = pre.copy()
    floor = EVIDENCE_FLOOR
    out[:, 1:] = np.logaddexp(0.0, pre[:, 1:]) + [floor, 1.0 + floor, floor]

    def rule(g: np.ndarray):
        d = g.copy()
        d[:, 1:] *= expit(pre[:, 1:])
        d += 0.0  # -0.0 to 0.0, as the sum of the four zero-padded slice gradients did
        return (d, d.sum(axis=0, keepdims=True))

    return ad.record(out, (raw, head_b), rule)


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    x: np.ndarray,
    mask: np.ndarray,
    p,
) -> ForwardPass:
    """Run masked input -> diffusion stack -> evidential head.

    x is a (nodes, history) array and mask a (nodes, 1) one, 1.0 on reserved
    rows and 0.0 on masked ones. Returns the per-node NIG record with
    positivity constraints applied, the last hidden state and the masked
    input; the recovery head runs only in training, in
    :func:`total_loss`. ``p`` is the forward transition matrix of
    :func:`gapcast.graph.normalize`; its transpose is built once and shared
    by every layer.
    """
    h0 = input_layer(x, mask)
    h = h0
    ops = (p, p.T)
    for layer in range(1, cfg.layers + 1):
        h = dgcn_layer(h, ops, layer, params, cfg)
    nig = nig_link(ad.matmul(h, params["head_w"]), params["head_b"])
    return ForwardPass(nig=nig, hidden=h, h0=h0)


def _require_positive(x: np.ndarray, op: str) -> None:
    if np.min(x) <= 0.0:
        raise ad.DomainError(f"{op} requires strictly positive inputs")


@dataclass
class _NigTerms:
    """The per-element NIG NLL and the intermediates its gradients reuse."""

    nll: np.ndarray
    nu_1: np.ndarray  # nu + 1
    omega: np.ndarray  # 2 beta (1 + nu)
    log_omega: np.ndarray
    resid_sq: np.ndarray
    spread: np.ndarray  # nu resid^2 + omega
    log_spread: np.ndarray
    alpha_half: np.ndarray  # alpha + 0.5


def _nig_nll_terms(
    resid: np.ndarray, nu: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> _NigTerms:
    """Per-element NIG marginal (Student-t) negative log-likelihood of the
    residual y - gamma, the one implementation of the formula.

    Omega = 2 beta (1 + nu); the NLL is
    0.5 log(pi/nu) - alpha log(Omega)
    + (alpha + 0.5) log(nu (y - gamma)^2 + Omega)
    + lgamma(alpha) - lgamma(alpha + 0.5).
    A log or lgamma argument that is not strictly positive raises
    DomainError.
    """
    nu_1 = nu + 1.0
    omega = (beta * nu_1) * 2.0
    _require_positive(nu, "log")
    _require_positive(omega, "log")
    log_omega = np.log(omega)
    head = np.log(nu) * -0.5 - alpha * log_omega
    alpha_half = alpha + 0.5
    resid_sq = resid * resid
    spread = nu * resid_sq + omega
    _require_positive(spread, "log")
    log_spread = np.log(spread)
    _require_positive(alpha, "lgamma")
    _require_positive(alpha_half, "lgamma")
    nll = (head + alpha_half * log_spread) + (gammaln(alpha) - gammaln(alpha_half))
    return _NigTerms(
        nll=nll + 0.5 * math.log(math.pi),
        nu_1=nu_1,
        omega=omega,
        log_omega=log_omega,
        resid_sq=resid_sq,
        spread=spread,
        log_spread=log_spread,
        alpha_half=alpha_half,
    )


def nig_nll(nig: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """Sum over nodes, by ``weights``, of the per-element NIG NLL plus the
    evidence penalty EVIDENCE_REG * |y - gamma| * (2 nu + alpha).

    ``nig`` is the (nodes, 4) record of :func:`nig_link`; ``target`` and
    ``weights`` are (nodes, 1) arrays. One tape op whose (nodes, 4)
    gradient flows to the record; value and gradients are bitwise those of
    the formula written as separate ops on its columns.
    """
    if nig.shape[1] != 4 or not target.shape == weights.shape == (nig.shape[0], 1):
        shapes = [nig.shape, target.shape, weights.shape]
        raise ad.DimensionError(f"nig_nll takes (n, 4), (n, 1), (n, 1), got {shapes}")
    gamma, nu_v, alpha_v, beta_v = np.hsplit(nig.values, 4)
    resid = target - gamma
    terms = _nig_nll_terms(resid, nu_v, alpha_v, beta_v)
    abs_resid = np.abs(resid)
    evidence = nu_v * 2.0 + alpha_v
    penalty = np.array([[(abs_resid * evidence * weights).sum()]]) * EVIDENCE_REG
    loss = np.array([[(terms.nll * weights).sum()]]) + penalty

    def rule(g: np.ndarray):
        # Gradients are summed in the order a tape of the separate ops
        # would sum them, the penalty's first.
        d_pen = np.full_like(resid, (g * EVIDENCE_REG)[0, 0]) * weights
        d_evidence = d_pen * abs_resid
        d_nll = np.full_like(resid, g[0, 0]) * weights
        d_alpha = d_evidence + -d_nll * digamma(terms.alpha_half)
        d_alpha = d_alpha + d_nll * digamma(alpha_v)
        d_spread = d_nll * terms.alpha_half / terms.spread
        d_nu = d_evidence * 2.0 + d_spread * terms.resid_sq
        d_resid = d_pen * evidence * np.sign(resid) + 2.0 * resid * (d_spread * nu_v)
        d_alpha = d_alpha + d_nll * terms.log_spread
        d_alpha = d_alpha + -d_nll * terms.log_omega
        d_omega = d_spread + -d_nll * alpha_v / terms.omega
        d_nu = d_nu + d_nll * -0.5 / nu_v
        d_beta_nu = d_omega * 2.0
        d_nu = d_nu + d_beta_nu * beta_v
        return (np.hstack([-d_resid, d_nu, d_alpha, d_beta_nu * terms.nu_1]),)

    return ad.record(loss, (nig,), rule)


def nig_nll_values(
    gamma: np.ndarray,
    nu: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Per-element NIG NLL of y over plain arrays (no evidence penalty),
    by the formula behind :func:`nig_nll`.

    The arrays broadcast to one shape, which the result keeps.
    """
    gamma, nu, alpha, beta, y = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64) for a in (gamma, nu, alpha, beta, y))
    )
    if not ((nu > 0).all() and (alpha > 1).all() and (beta > 0).all()):
        raise ad.DomainError("NIG parameters violate nu>0, alpha>1, beta>0")
    return np.asarray(_nig_nll_terms(y - gamma, nu, alpha, beta).nll).reshape(gamma.shape)


def total_loss(
    j_pre: Tensor,
    fwd: ForwardPass,
    params: dict[str, Tensor],
    weights: np.ndarray,
    loss_alpha: float,
) -> tuple[Tensor, np.ndarray]:
    """(j_pre + loss_alpha * j_rec, j_rec), with j_rec a (1, 1) array for
    the trace: the recovery loss, the sum over nodes, by the (nodes, 1)
    ``weights``, of the mean squared error between the recovery head's
    ``fwd.hidden @ rec_w + rec_b`` and the masked input ``fwd.h0``.

    One tape op over j_pre, ``fwd.hidden``, ``rec_w`` and ``rec_b``; value
    and gradients are bitwise those of the separate ops it replaces (the
    head's matmul and bias add, sub, square, weighted sum, the scale by
    1/history, the scale by loss_alpha and the add). A scale by 1.0 changes
    no bits, so a one-step history needs no branch.
    """
    hidden, rec_w, rec_b = fwd.hidden.values, params["rec_w"], params["rec_b"]
    diff = (hidden @ rec_w.values + rec_b.values) - fwd.h0.values
    inv_history, alpha = 1.0 / diff.shape[1], float(loss_alpha)
    j_rec = np.array([[(diff * diff * weights).sum()]]) * inv_history

    def rule(g: np.ndarray):
        g_rec = g * alpha * inv_history
        d_diff = 2.0 * diff * (np.full_like(diff, g_rec[0, 0]) * weights)
        return (g, d_diff @ rec_w.values.T, hidden.T @ d_diff, d_diff.sum(axis=0, keepdims=True))

    total = ad.record(j_pre.values + j_rec * alpha, (j_pre, fwd.hidden, rec_w, rec_b), rule)
    return total, j_rec
