"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Every trainable path in the forecaster (diffusion layers, output heads,
losses) is expressed in the small op vocabulary below.  Ops record onto the
innermost active :class:`Tape`; with no tape active they only compute values,
which is the cheap path used for inference.

All tensors are 2-D: scalars are 1x1, per-node vectors are nx1. The one
operand that is not a tensor is the constant operator of :func:`spmm`,
usually a ``scipy.sparse`` CSR matrix.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.special import digamma, expit, gammaln

__all__ = [
    "Tensor",
    "Tape",
    "Adam",
    "DimensionError",
    "DomainError",
    "constant",
    "parameter",
    "matmul",
    "spmm",
    "hadamard",
    "add",
    "sub",
    "scale",
    "add_scalar",
    "relu",
    "softplus",
    "log",
    "square",
    "absval",
    "lgamma",
    "reduce_sum",
    "slice_cols",
]


class DimensionError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class DomainError(ValueError):
    """Operand values fall outside an op's documented domain."""


class Tensor:
    """Dense 2-D float64 array with an optional gradient buffer.

    ``grad`` is lazily allocated and has the same shape as ``values``.
    Backward passes accumulate into it; :meth:`Adam.step` clears it.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


@dataclass
class TapeNode:
    """One recorded op: inputs, output, and the local backward rule.

    ``backward_rule`` maps the output gradient to one gradient (or None)
    per input, in input order.
    """

    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_rule: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


_STATE = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_STATE, "tapes", None)
    if stack is None:
        stack = []
        _STATE.tapes = stack
    return stack


class Tape:
    """Op recording in execution order; reverse traversal runs backprop.

    Nodes are appended as ops execute, so the list is topologically sorted
    by construction and :meth:`backward` visits each node exactly once.
    One tape per training step; tapes on distinct threads are independent.
    """

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _tape_stack().pop()
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate dloss/dT into every requires_grad tensor's buffer.

        Intermediate (op output) gradients are reset first, so calling
        backward twice on one tape doubles only leaf gradients, matching
        accumulate-until-zeroed semantics for parameters.

        Gradient buffers may alias arrays produced by backward rules, so
        accumulation always allocates (never mutates in place).
        """
        if loss.values.shape != (1, 1):
            raise DimensionError(f"backward needs a 1x1 loss, got {loss.values.shape}")
        for node in self.nodes:
            node.output.grad = None
        one = np.ones((1, 1))
        loss.grad = one if loss.grad is None else loss.grad + one
        for node in reversed(self.nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            for tensor, grad in zip(node.inputs, node.backward_rule(out_grad)):
                if grad is None or not tensor.requires_grad:
                    continue
                tensor.grad = grad if tensor.grad is None else tensor.grad + grad


def _make(values: np.ndarray, inputs: tuple[Tensor, ...], backward_rule) -> Tensor:
    # Hot path: values is always a fresh 2-D float64 array from a numpy op,
    # so the Tensor constructor's coercion is skipped.
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    if out.requires_grad:
        stack = _tape_stack()
        if stack:
            stack[-1].nodes.append(TapeNode(inputs, out, backward_rule))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; backward dA = dC @ B^T, dB = A^T @ dC."""
    av, bv = a.values, b.values
    if av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul mismatch: {av.shape} @ {bv.shape}")

    def rule(g: np.ndarray):
        return (
            g @ bv.T if a.requires_grad else None,
            av.T @ g if b.requires_grad else None,
        )

    return _make(av @ bv, (a, b), rule)


def spmm(op, op_t, h: Tensor) -> Tensor:
    """Constant operator times tensor, ``op @ h``; backward dh = op_t @ g.

    ``op`` is a constant (n, m) matrix, sparse or dense, and ``op_t`` its
    transpose, passed in so that a CSR operator is not re-transposed on
    every backward pass.
    """
    hv = h.values
    if op.shape[1] != hv.shape[0] or op_t.shape != (op.shape[1], op.shape[0]):
        raise DimensionError(f"spmm mismatch: {op.shape} (transpose {op_t.shape}) @ {hv.shape}")

    def rule(g: np.ndarray):
        return (op_t @ g,)

    return _make(op @ hv, (h,), rule)


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
    return _make(av * bv, (a, b), rule)


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
    return _make(av + bv, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise DimensionError(f"sub mismatch: {av.shape} vs {bv.shape}")

    def rule(g: np.ndarray):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _make(av - bv, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def rule(g: np.ndarray):
        return (g * c,)

    return _make(a.values * c, (a,), rule)


def add_scalar(a: Tensor, c: float) -> Tensor:
    def rule(g: np.ndarray):
        return (g,)

    return _make(a.values + float(c), (a,), rule)


def relu(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (g * (av > 0.0),)

    return _make(np.maximum(av, 0.0), (a,), rule)


def softplus(a: Tensor) -> Tensor:
    """ln(1 + e^x), overflow-safe (returns x for large x)."""
    av = a.values

    def rule(g: np.ndarray):
        return (g * expit(av),)

    return _make(np.logaddexp(0.0, av), (a,), rule)


def log(a: Tensor) -> Tensor:
    av = a.values
    if np.min(av) <= 0.0:
        raise DomainError("log requires strictly positive inputs")

    def rule(g: np.ndarray):
        return (g / av,)

    return _make(np.log(av), (a,), rule)


def square(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (2.0 * av * g,)

    return _make(av * av, (a,), rule)


def absval(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (g * np.sign(av),)

    return _make(np.abs(av), (a,), rule)


def lgamma(a: Tensor) -> Tensor:
    av = a.values
    if np.min(av) <= 0.0:
        raise DomainError("lgamma requires strictly positive inputs")

    def rule(g: np.ndarray):
        return (g * digamma(av),)

    return _make(gammaln(av), (a,), rule)


def reduce_sum(a: Tensor) -> Tensor:
    av = a.values

    def rule(g: np.ndarray):
        return (np.full_like(av, g[0, 0]),)

    return _make(np.array([[av.sum()]]), (a,), rule)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    av = a.values
    if not (0 <= start < stop <= av.shape[1]):
        raise DimensionError(f"column slice [{start}:{stop}] out of range for {av.shape}")

    def rule(g: np.ndarray):
        full = np.zeros_like(av)
        full[:, start:stop] = g
        return (full,)

    return _make(av[:, start:stop].copy(), (a,), rule)


# Adam's moment decay rates and denominator floor: Kingma and Ba's
# defaults, which no command or experiment changes.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict.

    ``step`` applies the update and zeroes every gradient buffer; a missing
    gradient is treated as zero (moments still decay).
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.values) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.values) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            v *= ADAM_BETA2
            if g is not None:
                m += (1.0 - ADAM_BETA1) * g
                v += (1.0 - ADAM_BETA2) * (g * g)
            with np.errstate(invalid="ignore"):
                update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if not np.all(np.isfinite(update)):
                raise DomainError(f"non-finite Adam update for parameter {name!r}")
            p.values -= update
            p.grad = None


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight matrix."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
