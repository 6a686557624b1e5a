"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Every trainable step of the forecaster (diffusion layers, output heads,
losses) is one op with a hand-written backward rule, joined to the tape by
:func:`record`; :func:`matmul` is the one generic op. Ops record onto the
innermost active :class:`Tape`; with no tape active they only compute values,
which is the cheap path used for inference.

All tensors are 2-D: scalars are 1x1, per-node vectors are nx1.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Adam",
    "DimensionError",
    "DomainError",
    "constant",
    "parameter",
    "record",
    "matmul",
]


class DimensionError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class DomainError(ValueError):
    """Operand values fall outside an op's documented domain."""


class Tensor:
    """Dense 2-D float64 array, marked when a gradient is wanted for it.
    It stores no gradient: :meth:`Tape.backward` returns them keyed by
    tensor, and :meth:`Adam.step` takes that mapping."""

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.values = arr
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

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """dloss/dT, keyed by T, for every requires_grad tensor T that the
        loss reaches and no op on this tape produced. Each op output's
        gradient is dropped once its node has run; sums allocate, since a
        rule may return the array it was given. The tape is not changed, so
        a second call returns the same result. A loss that no node on this
        tape produced raises ValueError."""
        if loss.values.shape != (1, 1):
            raise DimensionError(f"backward needs a 1x1 loss, got {loss.values.shape}")
        if all(node.output is not loss for node in self.nodes):
            raise ValueError("backward needs a loss that an op on this tape produced")
        grads = {loss: np.ones((1, 1))}
        for node in reversed(self.nodes):
            out_grad = grads.pop(node.output, None)
            if out_grad is None:
                continue
            for tensor, grad in zip(node.inputs, node.backward_rule(out_grad)):
                if grad is not None and tensor.requires_grad:
                    grads[tensor] = grads[tensor] + grad if tensor in grads else grad
        return grads


def record(values: np.ndarray, inputs: tuple[Tensor, ...], backward_rule) -> Tensor:
    """The output tensor of one op, recorded on the innermost tape when an
    input requires a gradient.

    ``values`` must be a fresh 2-D float64 array; the Tensor constructor's
    coercion is skipped on this hot path. ``backward_rule`` maps the output
    gradient to one gradient (or None) per input. :func:`matmul` and the
    fused ops of :mod:`gapcast.model` are built on it.
    """
    out = Tensor.__new__(Tensor)
    out.values = values
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

    return record(av @ bv, (a, b), rule)


# Adam's moment decay rates and denominator floor: Kingma and Ba's
# defaults, which no command or experiment changes.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict.

    The parameters' values live in one flat float64 buffer: construction
    copies each into it and rebinds the parameter's ``values`` to a
    reshaped view, so that ``step`` runs the moment and update arithmetic
    once over every entry. A parameter whose ``values`` is later replaced
    by another array is no longer updated.

    ``step(grads)`` applies the update for gradients keyed by parameter
    tensor, as :meth:`Tape.backward` returns them; a missing key counts as
    zero (moments still decay). It copies them and keeps none. A
    non-finite update raises DomainError before anything changes.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        sizes = [p.values.size for p in self.params.values()]
        self._offsets = np.cumsum([0, *sizes])
        total = int(self._offsets[-1])
        self._flat = np.empty(total)
        self._grad = np.empty(total)
        self._grad_views = []
        for p, start, stop in zip(self.params.values(), self._offsets, self._offsets[1:]):
            view = self._flat[start:stop].reshape(p.values.shape)
            view[...] = p.values
            p.values = view
            self._grad_views.append(self._grad[start:stop].reshape(view.shape))
        self._m, self._v = np.zeros(total), np.zeros(total)
        # next moments, the update and one temporary, reused every step
        self._m_next, self._v_next, self._update, self._tmp = (
            np.empty(total) for _ in range(4)
        )

    def step(self, grads: Mapping[Tensor, np.ndarray]) -> None:
        for p, view in zip(self.params.values(), self._grad_views):
            grad = grads.get(p)
            if grad is None:
                view.fill(0.0)
            else:
                view[...] = grad
        t = self.t + 1
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        g, tmp, m, v, update = self._grad, self._tmp, self._m_next, self._v_next, self._update
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2,
        # each product rounded as the per-parameter form rounds it
        np.multiply(self._m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        m += tmp
        np.multiply(self._v, ADAM_BETA2, out=v)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        # update = lr (m / bc1) / (sqrt(v / bc2) + eps)
        with np.errstate(invalid="ignore"):
            np.divide(m, bc1, out=update)
            update *= self.lr
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            update /= tmp
        finite = np.isfinite(update)
        if not finite.all():
            first = np.searchsorted(self._offsets, np.argmin(finite), side="right") - 1
            name = list(self.params)[first]
            raise DomainError(f"non-finite Adam update for parameter {name!r}")
        self._flat -= update
        self._m, self._m_next = m, self._m
        self._v, self._v_next = v, self._v
        self.t = t


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight matrix."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
