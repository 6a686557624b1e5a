"""Road-network graphs: Gaussian-kernel adjacency, transition matrices,
and Chebyshev diffusion operators.

All functions here are pure; graphs are treated as immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, constant, matmul, scale, sub

__all__ = [
    "RoadGraph",
    "TransitionPair",
    "ParameterError",
    "build_adjacency",
    "normalize",
    "chebyshev_terms",
    "subgraph",
]


class ParameterError(ValueError):
    """Invalid graph-construction parameter."""


@dataclass(frozen=True)
class RoadGraph:
    """Sensor network: kernel adjacency plus the observable/missing split.

    ``distances`` keeps the pairwise road distances the adjacency was built
    from (np.inf for unreachable pairs); nearest-neighbor imputation needs
    them. ``observable`` and ``missing`` partition ``range(n)``.
    """

    adjacency: np.ndarray
    distances: np.ndarray
    observable: np.ndarray
    missing: np.ndarray
    kernel_sigma: float
    kernel_kappa: float
    node_ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n) or self.distances.shape != (n, n):
            raise ParameterError("adjacency and distances must be square and same size")
        obs = set(self.observable.tolist())
        mis = set(self.missing.tolist())
        if obs & mis:
            raise ParameterError("observable and missing sets overlap")
        if obs | mis != set(range(n)):
            raise ParameterError("observable and missing must partition all nodes")
        a = self.adjacency
        if a.min() < 0.0 or a.max() > 1.0:
            raise ParameterError("adjacency entries must lie in [0, 1]")
        if not np.allclose(np.diag(a), 1.0):
            raise ParameterError("adjacency diagonal must be 1 (self-distance 0)")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def with_partition(self, observable: np.ndarray, missing: np.ndarray) -> "RoadGraph":
        return replace(
            self,
            observable=np.sort(np.asarray(observable, dtype=np.int64)),
            missing=np.sort(np.asarray(missing, dtype=np.int64)),
        )


@dataclass(frozen=True)
class TransitionPair:
    """Forward (row-normalized) and backward transition matrices."""

    forward: np.ndarray
    backward: np.ndarray


def build_adjacency(
    distances: np.ndarray,
    sigma: float | None = None,
    kappa: float = np.inf,
    node_ids: tuple[str, ...] = (),
) -> RoadGraph:
    """Thresholded-Gaussian-kernel adjacency from pairwise road distances.

    Entry (i, j) is exp(-dist(i,j)^2 / sigma^2); entries with
    dist >= kappa are truncated to zero (far pairs dropped).
    ``sigma=None`` uses the standard deviation of all finite
    off-diagonal distances. The diagonal is always 1 and every node starts
    observable.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ParameterError("distances must be a square matrix")
    finite = np.isfinite(d)
    if (d[finite] < 0).any():
        raise ParameterError("distances must be nonnegative")
    if sigma is None:
        off = finite & ~np.eye(d.shape[0], dtype=bool)
        if not off.any():
            raise ParameterError("no finite off-diagonal distances to estimate sigma")
        sigma = float(d[off].std())
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")

    a = np.zeros_like(d)
    a[finite] = np.exp(-((d[finite] / sigma) ** 2))
    a[finite & (d >= kappa)] = 0.0
    np.fill_diagonal(a, 1.0)
    n = d.shape[0]
    return RoadGraph(
        adjacency=a,
        distances=d,
        observable=np.arange(n, dtype=np.int64),
        missing=np.empty(0, dtype=np.int64),
        kernel_sigma=float(sigma),
        kernel_kappa=float(kappa),
        node_ids=tuple(node_ids),
    )


def normalize(graph: "RoadGraph | np.ndarray") -> TransitionPair:
    """Row-normalize into forward/backward transition matrices.

    Zero-degree rows stay all-zero. The backward matrix is the transpose of
    the forward one.
    """
    a = graph.adjacency if isinstance(graph, RoadGraph) else np.asarray(graph, dtype=np.float64)
    if (a < 0).any():
        raise ParameterError("adjacency must be nonnegative")
    deg = a.sum(axis=1, keepdims=True)
    forward = np.zeros_like(a)
    nz = deg[:, 0] > 0
    forward[nz] = a[nz] / deg[nz]
    return TransitionPair(forward=forward, backward=forward.T.copy())


def chebyshev_terms(abar: np.ndarray, h: Tensor, order: int) -> list[Tensor]:
    """[T_k(abar) @ h for k = 1..order] by the three-term recursion.

    Uses Z_0 = h, Z_1 = abar @ h, Z_k = 2 abar Z_{k-1} - Z_{k-2}; the
    polynomial of the matrix is never materialized. Gradients flow
    through h (abar is a constant).
    """
    if order < 1:
        raise ParameterError(f"Chebyshev order must be >= 1, got {order}")
    abar = np.asarray(abar, dtype=np.float64)
    if abar.ndim != 2 or abar.shape[0] != abar.shape[1]:
        raise ParameterError("transition matrix must be square")
    if abar.shape[1] != h.shape[0]:
        raise ParameterError(f"shape mismatch: {abar.shape} @ {h.shape}")
    a = constant(abar)
    z_prev = h
    z_cur = matmul(a, h)
    terms = [z_cur]
    for _ in range(2, order + 1):
        z_next = sub(scale(matmul(a, z_cur), 2.0), z_prev)
        terms.append(z_next)
        z_prev, z_cur = z_cur, z_next
    return terms


def subgraph(graph: "RoadGraph | np.ndarray", indices) -> np.ndarray:
    """Extract the adjacency submatrix at ``indices`` (order preserved)."""
    a = graph.adjacency if isinstance(graph, RoadGraph) else np.asarray(graph)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"subgraph index out of range for {a.shape[0]} nodes")
    if len(set(idx.tolist())) != idx.size:
        raise ParameterError("subgraph indices must be unique")
    return a[np.ix_(idx, idx)].copy()
