"""Tape ops that only the test oracles use.

The composite forms in ``test_fused_ops.py`` spell the fused diffusion
layer, NIG link, NIG loss and recovery loss out one arithmetic step at a
time, and ``gapcast`` itself calls none of these steps. They are recorded
here with ``gapcast.autodiff.record``, exactly as the library's
``matmul`` is, and ``test_autodiff.py`` gradchecks them with it.
"""

import numpy as np
from scipy.special import digamma, expit, gammaln

from gapcast.autodiff import DimensionError, DomainError, Tensor, record


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; b may be an nx1 column broadcast across columns."""
    av, bv = a.values, b.values
    if av.shape == bv.shape:

        def rule(g: np.ndarray):
            return (
                g * bv if a.requires_grad else None,
                g * av if b.requires_grad else None,
            )

    elif bv.shape == (av.shape[0], 1):

        def rule(g: np.ndarray):
            return (
                g * bv if a.requires_grad else None,
                (g * av).sum(axis=1, keepdims=True) if b.requires_grad else None,
            )

    else:
        raise DimensionError(f"hadamard mismatch: {av.shape} vs {bv.shape}")
    return record(av * bv, (a, b), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be a 1xm row (bias) broadcast across rows."""
    av, bv = a.values, b.values
    if av.shape == bv.shape:

        def rule(g: np.ndarray):
            return (g if a.requires_grad else None, g if b.requires_grad else None)

    elif bv.shape == (1, av.shape[1]):

        def rule(g: np.ndarray):
            return (
                g if a.requires_grad else None,
                g.sum(axis=0, keepdims=True) if b.requires_grad else None,
            )

    else:
        raise DimensionError(f"add mismatch: {av.shape} vs {bv.shape}")
    return record(av + bv, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise DimensionError(f"sub mismatch: {av.shape} vs {bv.shape}")

    def rule(g: np.ndarray):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return record(av - bv, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def rule(g: np.ndarray):
        return (g * c,)

    return record(a.values * c, (a,), rule)


def add_scalar(a: Tensor, c: float) -> Tensor:
    def rule(g: np.ndarray):
        return (g,)

    return record(a.values + float(c), (a,), rule)


def softplus(a: Tensor) -> Tensor:
    """ln(1 + e^x), overflow-safe (returns x for large x)."""
    av = a.values

    def rule(g: np.ndarray):
        return (g * expit(av),)

    return record(np.logaddexp(0.0, av), (a,), rule)


def square(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (2.0 * av * g,)

    return record(av * av, (a,), rule)


def reduce_sum(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (np.full_like(av, g[0, 0]),)

    return record(np.array([[av.sum()]]), (a,), rule)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    av = a.values
    if not (0 <= start < stop <= av.shape[1]):
        raise DimensionError(f"column slice [{start}:{stop}] out of range for {av.shape}")

    def rule(g: np.ndarray):
        full = np.zeros_like(av)
        full[:, start:stop] = g
        return (full,)

    return record(av[:, start:stop].copy(), (a,), rule)


def weighted_mean(x: Tensor, weights: Tensor) -> Tensor:
    """Weighted mean of x over per-row weights w (rows x 1): sum_i w_i * mean_j x_ij."""
    total = reduce_sum(hadamard(x, weights))
    return total if x.shape[1] == 1 else scale(total, 1.0 / x.shape[1])




def relu(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (g * (av > 0.0),)

    return record(np.maximum(av, 0.0), (a,), rule)


def log(a: Tensor) -> Tensor:
    av = a.values
    if np.min(av) <= 0.0:
        raise DomainError("log requires strictly positive inputs")

    def rule(g: np.ndarray):
        return (g / av,)

    return record(np.log(av), (a,), rule)


def absval(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (g * np.sign(av),)

    return record(np.abs(av), (a,), rule)


def lgamma(a: Tensor) -> Tensor:
    av = a.values
    if np.min(av) <= 0.0:
        raise DomainError("lgamma requires strictly positive inputs")

    def rule(g: np.ndarray):
        return (g * digamma(av),)

    return record(gammaln(av), (a,), rule)
