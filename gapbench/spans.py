"""Span timers wrapped around gapcast's public functions from outside.

A :class:`Tracer` replaces each listed function with a timing wrapper in
every ``gapcast`` module that holds a reference to it, so a call is seen
however its caller looks the function up (``gapcast.training.normalize``
and ``gapcast.graph.normalize`` are the same object under two names).
Nothing in ``gapcast`` is edited; :meth:`Tracer.uninstall` puts the
originals back, so an untraced pass runs the program exactly as shipped.

Self time is a span's duration minus the time covered by its child spans.
Every span keeps a call count, so a wrapper that stops firing reads as 0
calls instead of vanishing from the report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, qualified name) of every traced function. ``dgcn_layer`` is
# reported per diffusion layer; see LAYERED.
SPANS = (
    ("data", "load_speed_csv"),
    ("data", "load_distances_csv"),
    ("data", "hide_locations"),
    ("data", "split"),
    ("graph", "build_adjacency"),
    ("graph", "subgraph"),
    ("graph", "normalize"),
    ("graph", "chebyshev_terms"),
    ("model", "init_params"),
    ("model", "input_layer"),
    ("model", "dgcn_layer"),
    ("model", "forward"),
    ("model", "nig_nll"),
    ("model", "nig_nll_values"),
    ("autodiff", "Tape.backward"),
    ("autodiff", "Adam.step"),
    ("training", "valid_time_steps"),
    ("training", "draw_sample"),
    ("training", "compute_loss"),
    ("training", "train"),
    ("training", "predict_full"),
    ("training", "save_model"),
    ("training", "load_model"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("evaluate", "collect_predictions"),
    ("evaluate", "make_report"),
    ("sensing", "selection"),
    ("sensing", "run_episode"),
)

# Spans split by the value of one argument: name -> (argument, labels).
LAYERED = {"model.dgcn_layer": ("layer", {1: "l1", 2: "l2", 3: "l3"})}

# Spans inside which a graph normalisation counts as inference work.
INFERENCE_SPANS = ("evaluate.collect_predictions", "training.predict_full")

# Tape op kinds, named after the autodiff function that records them.
OP_KINDS = (
    "matmul", "hadamard", "add", "sub", "scale", "add_scalar", "relu",
    "softplus", "log", "square", "absval", "lgamma", "reduce_sum",
    "reduce_mean", "slice_cols",
)


class SpanError(RuntimeError):
    """A traced name is gone, or a reference to it cannot be wrapped."""


def span_names() -> list[str]:
    names = []
    for module, qualname in SPANS:
        name = f"{module}.{qualname}"
        if name in LAYERED:
            names += [f"{name}.{label}" for label in LAYERED[name][1].values()]
        else:
            names.append(name)
    return names


@dataclass
class SpanStat:
    calls: int = 0
    self_ns: int = 0


@dataclass
class TapeCounts:
    """Exact counts read from ``Tape.nodes`` when ``backward`` is called."""

    batches: int = 0
    ops: Counter = field(default_factory=Counter)
    matmul_flop: int = 0
    matmul_bytes: int = 0


@dataclass
class _Frame:
    child_ns: int = 0


class Tracer:
    """Installs span wrappers into the loaded ``gapcast`` modules.

    Use as ``with tracer:`` around one pass, with a fresh tracer per pass.
    Single-threaded, like the program it measures.
    """

    def __init__(self) -> None:
        self.stats = {name: SpanStat() for name in span_names()}
        self.tape = TapeCounts()
        self.inference_normalize_calls = 0
        self.top_level_ns = 0
        self._stack: list[_Frame] = []
        self._inference_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def install(self) -> None:
        if self._patches:
            raise SpanError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gapcast" or n.startswith("gapcast.")]
        try:
            for module_name, qualname in SPANS:
                self._install_one(modules, module_name, qualname)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install_one(self, modules, module_name: str, qualname: str) -> None:
        name = f"{module_name}.{qualname}"
        home = importlib.import_module(f"gapcast.{module_name}")
        owner, attr = home, qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(home, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            raise SpanError(f"traced function gapcast.{name} no longer exists")
        wrapper = self._wrap(name, original)
        if owner is not home:  # a method: callers look it up on the class
            self._patch(owner, attr, wrapper)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)
                elif isinstance(value, (dict, list, tuple)) and _holds(value, original):
                    raise SpanError(
                        f"{module.__name__}.{key} holds gapcast.{name} in a container; "
                        "calls through it would not be traced"
                    )

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        if name in LAYERED:
            arg, labels = LAYERED[name]
            params = list(inspect.signature(fn).parameters)
            if arg not in params:
                raise SpanError(f"gapcast.{name} has no {arg!r} argument to split spans by")
            index = params.index(arg)

            @functools.wraps(fn)
            def layered(*args, **kwargs):
                value = args[index] if len(args) > index else kwargs[arg]
                label = labels.get(value)
                if label is None:
                    raise SpanError(f"gapcast.{name} called with untraced {arg}={value!r}")
                return self._call(f"{name}.{label}", fn, args, kwargs)

            return layered

        if name == "autodiff.Tape.backward":

            @functools.wraps(fn)
            def backward(tape, *args, **kwargs):
                self._count_tape(tape)
                return self._call(name, fn, (tape, *args), kwargs)

            return backward

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    # -- timing -------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        frame = _Frame()
        stack = self._stack
        inference = name in INFERENCE_SPANS
        if name == "graph.normalize" and self._inference_depth:
            self.inference_normalize_calls += 1
        self._inference_depth += inference
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            self._inference_depth -= inference
            stat = self.stats[name]
            stat.calls += 1
            stat.self_ns += elapsed - frame.child_ns
            if stack:
                stack[-1].child_ns += elapsed
            else:
                self.top_level_ns += elapsed

    def _count_tape(self, tape) -> None:
        """Count the recorded ops and the dense matmul work of one batch.

        The counting time is charged to no layer: it is added to the
        enclosing span's child time and so shows only as tracing overhead.
        """
        start = time.perf_counter_ns()
        counts = self.tape
        counts.batches += 1
        for node in tape.nodes:
            kind = node.backward_rule.__qualname__.split(".", 1)[0]
            counts.ops[kind if kind in OP_KINDS else "other"] += 1
            if kind == "matmul":
                a, b = node.inputs
                (m, k), (_, p) = a.values.shape, b.values.shape
                # Forward C = A @ B, then dA = dC @ B^T and dB = A^T @ dC for
                # each input that needs a gradient; every product costs
                # 2mkp flops and touches its three operands once.
                products = 1 + a.requires_grad + b.requires_grad
                counts.matmul_flop += products * 2 * m * k * p
                counts.matmul_bytes += products * 8 * (m * k + k * p + m * p)
        if self._stack:
            self._stack[-1].child_ns += time.perf_counter_ns() - start


def _holds(container, target) -> bool:
    items = container.values() if isinstance(container, dict) else container
    return any(item is target for item in items)
