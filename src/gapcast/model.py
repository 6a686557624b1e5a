"""The inductive diffusion-convolution forecaster.

Masked input layer, a stack of diffusion graph-convolution layers with a
residual connection from the first into the second, and two heads: an
evidential Normal-Inverse-Gamma head (whose location doubles as the point
prediction) and a linear recovery head that reconstructs the input window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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
    "nig_nll",
    "nig_nll_values",
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
    strength, alpha_nig > 1 the shape, beta > 0 the scale.
    """

    gamma: np.ndarray
    nu: np.ndarray
    alpha_nig: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "nu", "alpha_nig", "beta"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64).reshape(-1))
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

    def rescaled(self, mean: float, std: float) -> "EvidentialOutput":
        """Map parameters from standardized space back to speed units."""
        return EvidentialOutput(
            gamma=self.gamma * std + mean,
            nu=self.nu,
            alpha_nig=self.alpha_nig,
            beta=self.beta * std * std,
        )


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

    def evidential(self) -> EvidentialOutput:
        return EvidentialOutput(
            gamma=self.gamma.values[:, 0],
            nu=self.nu.values[:, 0],
            alpha_nig=self.alpha.values[:, 0],
            beta=self.beta.values[:, 0],
        )


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
    terms_f = chebyshev_terms(trans.forward, h, cfg.cheb_order)
    terms_b = chebyshev_terms(trans.backward, h, cfg.cheb_order)
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


def nig_nll(
    gamma: Tensor,
    nu: Tensor,
    alpha: Tensor,
    beta: Tensor,
    target: Tensor,
    evidence_reg: float = 0.01,
) -> Tensor:
    """Mean NIG marginal (Student-t) negative log-likelihood plus the
    evidence penalty evidence_reg * |y - gamma| * (2 nu + alpha).

    Omega = 2 beta (1 + nu); per-node NLL is
    0.5 log(pi/nu) - alpha log(Omega)
    + (alpha + 0.5) log(nu (y - gamma)^2 + Omega)
    + lgamma(alpha) - lgamma(alpha + 0.5).
    """
    resid = ad.sub(target, gamma)
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
    nll = ad.add_scalar(nll, 0.5 * math.log(math.pi))
    loss = ad.reduce_mean(nll)
    if evidence_reg:
        penalty = ad.hadamard(
            ad.absval(resid), ad.add(ad.scale(nu, 2.0), alpha)
        )
        loss = ad.add(loss, ad.scale(ad.reduce_mean(penalty), evidence_reg))
    return loss


def nig_nll_values(
    gamma: np.ndarray,
    nu: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Per-element NIG marginal NLL (no evidence penalty), plain arrays.

    Used by evaluation; agrees exactly with the differentiable path's
    likelihood term.
    """
    gamma, nu, alpha, beta, y = (
        np.asarray(a, dtype=np.float64) for a in (gamma, nu, alpha, beta, y)
    )
    if (nu <= 0).any() or (beta <= 0).any() or (alpha <= 1).any():
        raise ad.DomainError("NIG parameters violate nu>0, alpha>1, beta>0")
    omega = 2.0 * beta * (1.0 + nu)
    return (
        0.5 * np.log(np.pi / nu)
        - alpha * np.log(omega)
        + (alpha + 0.5) * np.log(nu * (y - gamma) ** 2 + omega)
        + gammaln(alpha)
        - gammaln(alpha + 0.5)
    )
