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
from scipy.special import digamma, gammaln

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
    "forward",
    "nig_nll",
    "nig_nll_values",
    "weighted_mean",
]

# Strictly positive floor added after softplus so nu > 0, alpha > 1, beta > 0
# hold even when the raw activation underflows.
EVIDENCE_FLOOR = 1e-10


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; layers >= 2 so the layer-1 residual target exists."""

    hidden_dim: int = 100
    layers: int = 3
    cheb_order: int = 2
    evidence_reg: float = 0.01

    def __post_init__(self):
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
    """Differentiable forward results (all tape tensors, nodes x cols)."""

    gamma: Tensor
    nu: Tensor
    alpha: Tensor
    beta: Tensor
    recovery: Tensor
    h0: Tensor


def input_layer(x: Tensor, mask: Tensor) -> Tensor:
    """H_0: features (nodes, history) gated by the (nodes, 1) mask column,
    masked rows all-zero."""
    return ad.hadamard(x, mask)


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


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    x: Tensor,
    mask: Tensor,
    p,
) -> ForwardPass:
    """Run masked input -> diffusion stack -> evidential + recovery heads.

    x is (nodes, history) and mask a (nodes, 1) column, 1.0 on reserved
    rows and 0.0 on masked ones. Returns per-node NIG parameters with positivity
    constraints applied, plus the recovery of the input window. ``p`` is
    the forward transition matrix of :func:`gapcast.graph.normalize`; its
    transpose is built once and shared by every layer.
    """
    h0 = input_layer(x, mask)
    h = h0
    ops = (p, p.T)
    for layer in range(1, cfg.layers + 1):
        h = dgcn_layer(h, ops, layer, params, cfg)

    raw = ad.add(ad.matmul(h, params["head_w"]), params["head_b"])
    gamma = ad.slice_cols(raw, 0, 1)
    nu = ad.add_scalar(ad.softplus(ad.slice_cols(raw, 1, 2)), EVIDENCE_FLOOR)
    alpha = ad.add_scalar(ad.softplus(ad.slice_cols(raw, 2, 3)), 1.0 + EVIDENCE_FLOOR)
    beta = ad.add_scalar(ad.softplus(ad.slice_cols(raw, 3, 4)), EVIDENCE_FLOOR)
    recovery = ad.add(ad.matmul(h, params["rec_w"]), params["rec_b"])
    return ForwardPass(
        gamma=gamma,
        nu=nu,
        alpha=alpha,
        beta=beta,
        recovery=recovery,
        h0=h0,
    )


def weighted_mean(x: Tensor, weights: Tensor) -> Tensor:
    """Weighted mean of x over per-row weights w (rows x 1): sum_i w_i * mean_j x_ij."""
    total = ad.reduce_sum(ad.hadamard(x, weights))
    return total if x.shape[1] == 1 else ad.scale(total, 1.0 / x.shape[1])


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


def nig_nll(
    gamma: Tensor,
    nu: Tensor,
    alpha: Tensor,
    beta: Tensor,
    target: Tensor,
    evidence_reg: float,
    weights: Tensor,
) -> Tensor:
    """Weighted mean of the per-element NIG NLL plus the evidence penalty
    evidence_reg * |y - gamma| * (2 nu + alpha), weighted the same way.

    Every argument is a (nodes, 1) column; ``weights`` holds the per-node
    weights of :func:`weighted_mean`. The loss is one tape op whose
    gradients flow to gamma, nu, alpha and beta; target and weights must
    be constants. Value and gradients are bitwise those of the same
    formula written as separate autodiff ops.
    """
    columns = (gamma, nu, alpha, beta, target, weights)
    shape = gamma.values.shape
    if shape[1] != 1 or any(t.values.shape != shape for t in columns):
        raise ad.DimensionError(f"nig_nll takes (n, 1) columns, got {[t.shape for t in columns]}")
    if target.requires_grad or weights.requires_grad:
        raise ValueError("nig_nll differentiates gamma, nu, alpha and beta only")
    nu_v, alpha_v, beta_v, w = nu.values, alpha.values, beta.values, weights.values
    resid = target.values - gamma.values
    terms = _nig_nll_terms(resid, nu_v, alpha_v, beta_v)
    loss = np.array([[(terms.nll * w).sum()]])
    reg = float(evidence_reg)
    if evidence_reg:
        abs_resid = np.abs(resid)
        evidence = nu_v * 2.0 + alpha_v
        loss = loss + np.array([[(abs_resid * evidence * w).sum()]]) * reg

    def rule(g: np.ndarray):
        # Gradients are summed in the order a tape of the separate ops
        # would sum them, the penalty's first.
        d_alpha = d_nu = d_resid = None
        if evidence_reg:
            d_pen = np.full_like(resid, (g * reg)[0, 0]) * w
            d_evidence = d_pen * abs_resid
            d_alpha = d_evidence
            d_nu = d_evidence * 2.0
            d_resid = d_pen * evidence * np.sign(resid)
        d_nll = np.full_like(resid, g[0, 0]) * w
        d_alpha_half = -d_nll * digamma(terms.alpha_half)
        d_alpha = d_alpha_half if d_alpha is None else d_alpha + d_alpha_half
        d_alpha = d_alpha + d_nll * digamma(alpha_v)
        d_spread = d_nll * terms.alpha_half / terms.spread
        d_nu_sq = d_spread * terms.resid_sq
        d_nu = d_nu_sq if d_nu is None else d_nu + d_nu_sq
        d_resid_sq = 2.0 * resid * (d_spread * nu_v)
        d_resid = d_resid_sq if d_resid is None else d_resid + d_resid_sq
        d_alpha = d_alpha + d_nll * terms.log_spread
        d_alpha = d_alpha + -d_nll * terms.log_omega
        d_omega = d_spread + -d_nll * alpha_v / terms.omega
        d_nu = d_nu + d_nll * -0.5 / nu_v
        d_beta_nu = d_omega * 2.0
        d_nu = d_nu + d_beta_nu * beta_v
        return (-d_resid, d_nu, d_alpha, d_beta_nu * terms.nu_1)

    return ad.record(loss, (gamma, nu, alpha, beta), rule)


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
