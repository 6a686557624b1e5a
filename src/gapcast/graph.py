"""Road-network graphs: Gaussian-kernel adjacency, transition matrices,
and Chebyshev diffusion operators.

Adjacency and transition matrices are float64 ``scipy.sparse`` arrays: a
kernel graph has a handful of neighbours per node, so every diffusion
product costs O(edges), not O(n^2). All functions here are pure; graphs
are treated as immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

__all__ = [
    "RoadGraph",
    "ParameterError",
    "build_adjacency",
    "normalize",
    "chebyshev_terms",
    "subgraph",
    "diagonal_block",
]


class ParameterError(ValueError):
    """Invalid graph-construction parameter."""


def _require_csr(matrix, name: str) -> sparse.csr_array:
    """``matrix`` itself if it is a float64 CSR array; ParameterError if not."""
    if not isinstance(matrix, sparse.csr_array) or matrix.dtype != np.float64:
        kind = f"{type(matrix).__name__} {getattr(matrix, 'dtype', '')}"
        raise ParameterError(f"{name} must be a float64 scipy.sparse.csr_array, got {kind}")
    return matrix


@dataclass(frozen=True)
class RoadGraph:
    """Sensor network: kernel adjacency plus the observable/missing split.

    ``adjacency`` is a float64 CSR array of the kept kernel entries only.
    ``distances`` keeps the dense pairwise road distances it was built from
    (np.inf for unreachable pairs); nearest-neighbor imputation needs them.
    ``observable`` and ``missing`` partition ``range(n)``. ``node_ids`` is
    empty or names every node.
    """

    adjacency: sparse.csr_array
    distances: np.ndarray
    observable: np.ndarray
    missing: np.ndarray
    kernel_sigma: float
    kernel_kappa: float
    node_ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        a = _require_csr(self.adjacency, "adjacency")
        n = a.shape[0]
        if a.shape != (n, n) or self.distances.shape != (n, n):
            raise ParameterError("adjacency and distances must be square and same size")
        if len(self.node_ids) not in (0, n):
            raise ParameterError(f"{len(self.node_ids)} node ids for {n} nodes")
        obs = set(self.observable.tolist())
        mis = set(self.missing.tolist())
        if obs & mis:
            raise ParameterError("observable and missing sets overlap")
        if obs | mis != set(range(n)):
            raise ParameterError("observable and missing must partition all nodes")
        if not ((a.data >= 0.0) & (a.data <= 1.0)).all():
            raise ParameterError("adjacency entries must lie in [0, 1]")
        if not np.allclose(a.diagonal(), 1.0):
            raise ParameterError("adjacency diagonal must be 1 (self-distance 0)")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def with_partition(self, observable: np.ndarray, missing: np.ndarray) -> "RoadGraph":
        """A copy with a new observable/missing split; it shares the adjacency."""
        return replace(
            self,
            observable=np.sort(np.asarray(observable, dtype=np.int64)),
            missing=np.sort(np.asarray(missing, dtype=np.int64)),
        )


def build_adjacency(
    distances: np.ndarray,
    sigma: float | None = None,
    kappa: float = np.inf,
    node_ids: tuple[str, ...] = (),
) -> RoadGraph:
    """Thresholded-Gaussian-kernel adjacency from pairwise road distances.

    Entry (i, j) is exp(-dist(i,j)^2 / sigma^2), evaluated only for pairs
    with dist < kappa; the CSR adjacency stores the non-zero entries.
    ``sigma=None`` uses the standard deviation of all finite
    off-diagonal distances. A distance of +inf marks an absent pair; a NaN
    or negative one, -inf included, raises ParameterError, as
    :func:`gapcast.data.load_distances_csv` refuses it. The diagonal is
    always 1 and every node starts observable.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ParameterError("distances must be a square matrix")
    if np.isnan(d).any():
        raise ParameterError("distances must not be NaN; an absent pair is inf")
    if (d < 0).any():
        raise ParameterError("distances must be nonnegative")
    finite = np.isfinite(d)
    if sigma is None:
        off = finite & ~np.eye(d.shape[0], dtype=bool)
        if not off.any():
            raise ParameterError("no finite off-diagonal distances to estimate sigma")
        sigma = float(d[off].std())
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if not kappa > 0:
        raise ParameterError(f"kappa must be positive, got {kappa}")

    n = d.shape[0]
    keep = finite & (d < kappa)
    np.fill_diagonal(keep, True)
    flat = np.flatnonzero(keep)  # row-major, so already in CSR order
    weights = np.exp(-((d.ravel()[flat] / sigma) ** 2))
    weights[np.searchsorted(flat, np.arange(n) * (n + 1))] = 1.0  # self pairs
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    cols = np.remainder(flat, n, out=flat)  # in place: no second index array
    adjacency = sparse.csr_array((weights, cols, indptr), shape=(n, n))
    adjacency.eliminate_zeros()  # kernel values that underflow to 0
    return RoadGraph(
        adjacency=adjacency,
        distances=d,
        observable=np.arange(n, dtype=np.int64),
        missing=np.empty(0, dtype=np.int64),
        kernel_sigma=float(sigma),
        kernel_kappa=float(kappa),
        node_ids=tuple(node_ids),
    )


def normalize(adjacency: sparse.csr_array) -> sparse.csr_array:
    """Row-normalize a float64 CSR adjacency into the forward transition
    matrix P, a CSR array. Zero-degree rows stay all-zero.

    The backward transition is ``P.T``: a CSC view that shares P's arrays,
    so one matrix is stored.
    """
    a = _require_csr(adjacency, "adjacency")
    if (a.data < 0).any():
        raise ParameterError("adjacency must be nonnegative")
    deg = np.repeat(a.sum(axis=1), np.diff(a.indptr))
    data = np.divide(a.data, deg, out=np.zeros_like(a.data), where=deg > 0)
    return sparse.csr_array((data, a.indices, a.indptr), shape=a.shape)


def chebyshev_terms(abar, h: np.ndarray, order: int) -> list[np.ndarray]:
    """[T_k(abar) @ h for k = 1..order] by the three-term recursion.

    Uses Z_0 = h, Z_1 = abar @ h, Z_k = 2 abar Z_{k-1} - Z_{k-2}; the
    polynomial of the matrix is never materialized. ``abar`` is a square
    matrix, sparse or dense, and ``h`` a 2-D array.
    """
    if order < 1:
        raise ParameterError(f"Chebyshev order must be >= 1, got {order}")
    if abar.ndim != 2 or abar.shape[0] != abar.shape[1]:
        raise ParameterError("transition matrix must be square")
    if abar.shape[1] != h.shape[0]:
        raise ParameterError(f"shape mismatch: {abar.shape} @ {h.shape}")
    z_prev = h
    z_cur = abar @ h
    terms = [z_cur]
    for _ in range(2, order + 1):
        z_next = (abar @ z_cur) * 2.0 - z_prev
        terms.append(z_next)
        z_prev, z_cur = z_cur, z_next
    return terms


def subgraph(adjacency: sparse.csr_array, node_lists) -> sparse.csr_array:
    """The block-diagonal union of the adjacency submatrices at each list
    of ``node_lists``: one block per list, in order, each keeping its
    list's node order, built as one CSR matrix.

    A node may appear in several lists but only once in each. Gathers the
    CSR rows of every chosen node and keeps the entries whose column is
    chosen in the same list, found in a table of each (list, node) pair's
    row: O(nodes * degree + lists * n), with no dense copy.
    """
    a = _require_csr(adjacency, "adjacency")
    n = a.shape[0]
    lists = [np.asarray(nodes, dtype=np.int64) for nodes in node_lists]
    idx = np.concatenate([np.empty(0, dtype=np.int64), *lists])
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"subgraph index out of range for {n} nodes")
    offsets = np.repeat(np.arange(len(lists)) * n, [nodes.size for nodes in lists])
    keys, rows = offsets + idx, np.arange(idx.size)
    row_of = np.full(len(lists) * n, -1)  # (list, node) -> row, -1 where not chosen
    row_of[keys] = rows
    if (row_of[keys] != rows).any():  # a repeated key keeps only one of its rows
        raise ParameterError("a node repeats within one subgraph node list")
    starts = a.indptr[idx]
    counts = a.indptr[idx + 1] - starts
    # Position in a.data of every entry of the gathered rows, row by row.
    pos = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    cols = row_of[np.repeat(offsets, counts) + a.indices[pos]]
    keep = cols >= 0
    indptr = np.zeros(idx.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.repeat(rows, counts)[keep], minlength=idx.size), out=indptr[1:])
    return sparse.csr_array((a.data[pos[keep]], cols[keep], indptr), shape=(idx.size, idx.size))


def diagonal_block(matrix: sparse.csr_array, start: int, stop: int) -> sparse.csr_array:
    """Rows and columns [start, stop) of a block-diagonal CSR ``matrix``
    whose blocks do not straddle ``start`` or ``stop``, such as a union of
    :func:`subgraph` blocks: one CSR built from slices of its arrays,
    holding the block's entries in their order, with no gather."""
    lo, hi = matrix.indptr[start], matrix.indptr[stop]
    return sparse.csr_array(
        (matrix.data[lo:hi], matrix.indices[lo:hi] - start, matrix.indptr[start : stop + 1] - lo),
        shape=(stop - start, stop - start),
    )
