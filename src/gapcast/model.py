"""The inductive diffusion-convolution forecaster.

Masked input layer, a stack of diffusion graph-convolution layers with a
residual connection from the first into the second, and two heads: an
evidential Normal-Inverse-Gamma head (whose location doubles as the point
prediction) and a linear recovery head that reconstructs the input window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import TransitionPair, chebyshev_terms

__all__ = [
    "ModelConfig",
    "EvidentialOutput",
    "ForwardPass",
    "init_params",
    "input_layer",
    "dgcn_layer",
    "forward",
    "nig_nll_elements",
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
    h_first: Tensor


def input_layer(x: Tensor, mask: Tensor) -> Tensor:
    """H_0: features gated by the row mask, masked rows all-zero."""
    return ad.hadamard(x, mask)


def dgcn_layer(
    h: Tensor,
    trans: TransitionPair,
    layer: int,
    params: dict[str, Tensor],
    cfg: ModelConfig,
    h_first: Tensor | None = None,
) -> Tensor:
    """One diffusion layer: Chebyshev expansion over both transition
    directions, linearly combined through the layer's weights.

    The second layer applies relu and adds the first layer's output back
    in, so fully masked rows keep a signal path.
    """
    terms_f = chebyshev_terms(trans.forward, h, cfg.cheb_order, trans.backward)
    terms_b = chebyshev_terms(trans.backward, h, cfg.cheb_order, trans.forward)
    total: Tensor | None = None
    for k in range(1, cfg.cheb_order + 1):
        part = ad.add(
            ad.matmul(terms_f[k - 1], params[f"theta_f_l{layer}_k{k}"]),
            ad.matmul(terms_b[k - 1], params[f"theta_b_l{layer}_k{k}"]),
        )
        total = part if total is None else ad.add(total, part)
    if layer == 2:
        if h_first is None:
            raise ValueError("layer 2 needs the first layer's output for its residual")
        return ad.add(ad.relu(total), h_first)
    return total


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    x: Tensor,
    mask: Tensor,
    trans: TransitionPair,
) -> ForwardPass:
    """Run masked input -> diffusion stack -> evidential + recovery heads.

    x and mask are (nodes, history); mask rows are all-ones (reserved) or
    all-zeros (masked). Returns per-node NIG parameters with positivity
    constraints applied, plus the recovery of the input window.
    """
    h0 = input_layer(x, mask)
    h = dgcn_layer(h0, trans, 1, params, cfg)
    h_first = h
    for layer in range(2, cfg.layers + 1):
        h = dgcn_layer(h, trans, layer, params, cfg, h_first=h_first)

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
        h_first=h_first,
    )


def weighted_mean(x: Tensor, weights: Tensor) -> Tensor:
    """Weighted mean of x over per-row weights w (rows x 1): sum_i w_i * mean_j x_ij."""
    total = ad.reduce_sum(ad.hadamard(x, weights))
    return total if x.shape[1] == 1 else ad.scale(total, 1.0 / x.shape[1])


def nig_nll_elements(resid: Tensor, nu: Tensor, alpha: Tensor, beta: Tensor) -> Tensor:
    """Per-element NIG marginal (Student-t) negative log-likelihood of the
    residual y - gamma.

    Omega = 2 beta (1 + nu); the NLL is
    0.5 log(pi/nu) - alpha log(Omega)
    + (alpha + 0.5) log(nu (y - gamma)^2 + Omega)
    + lgamma(alpha) - lgamma(alpha + 0.5).
    """
    omega = ad.scale(ad.hadamard(beta, ad.add_scalar(nu, 1.0)), 2.0)
    nll = ad.add(
        ad.add(
            ad.sub(
                ad.scale(ad.log(nu), -0.5),
                ad.hadamard(alpha, ad.log(omega)),
            ),
            ad.hadamard(
                ad.add_scalar(alpha, 0.5),
                ad.log(ad.add(ad.hadamard(nu, ad.square(resid)), omega)),
            ),
        ),
        ad.sub(ad.lgamma(alpha), ad.lgamma(ad.add_scalar(alpha, 0.5))),
    )
    return ad.add_scalar(nll, 0.5 * math.log(math.pi))


def nig_nll(
    gamma: Tensor,
    nu: Tensor,
    alpha: Tensor,
    beta: Tensor,
    target: Tensor,
    evidence_reg: float,
    weights: Tensor,
) -> Tensor:
    """Mean of :func:`nig_nll_elements` plus the evidence penalty
    evidence_reg * |y - gamma| * (2 nu + alpha); both means are weighted by
    ``weights`` (nodes x 1).
    """
    resid = ad.sub(target, gamma)
    loss = weighted_mean(nig_nll_elements(resid, nu, alpha, beta), weights)
    if evidence_reg:
        penalty = ad.hadamard(
            ad.absval(resid), ad.add(ad.scale(nu, 2.0), alpha)
        )
        loss = ad.add(loss, ad.scale(weighted_mean(penalty, weights), evidence_reg))
    return loss


def nig_nll_values(
    gamma: np.ndarray,
    nu: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """:func:`nig_nll_elements` of y over plain arrays (no evidence penalty).

    The arrays broadcast to one shape, which the result keeps. They enter
    as constants, so no tape records the ops.
    """
    arrays = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64) for a in (gamma, nu, alpha, beta, y))
    )
    _, nu, alpha, beta, _ = arrays
    if not ((nu > 0).all() and (alpha > 1).all() and (beta > 0).all()):
        raise ad.DomainError("NIG parameters violate nu>0, alpha>1, beta>0")
    gamma, nu, alpha, beta, y = (
        ad.constant(a if a.ndim == 2 else a.reshape(1, -1)) for a in arrays
    )
    nll = nig_nll_elements(ad.sub(y, gamma), nu, alpha, beta)
    return nll.values.reshape(arrays[0].shape)
