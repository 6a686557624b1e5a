"""Tape ops that only the test oracles use.

The composite forms in ``test_fused_ops.py`` spell the fused diffusion
layer and NIG loss out one arithmetic step at a time, and some of those
steps have no caller in ``gapcast`` itself. They are recorded here with
``gapcast.autodiff.record``, exactly as the library's own ops are, and
``test_autodiff.py`` gradchecks them with the rest.
"""

import numpy as np
from scipy.special import digamma, gammaln

from gapcast.autodiff import DomainError, Tensor, record


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
