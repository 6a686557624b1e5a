import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from gapcast.graph import (
    ParameterError,
    RoadGraph,
    build_adjacency,
    chebyshev_terms,
    normalize,
    subgraph,
)


def csr(a):
    """A dense test matrix as the float64 CSR array the graph helpers take."""
    return sparse.csr_array(np.asarray(a, dtype=np.float64))


def ring_distances(n, spacing=1.0):
    idx = np.arange(n)
    hops = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(hops, n - hops) * spacing


class TestBuildAdjacency:
    def test_zero_distance_gives_one(self):
        g = build_adjacency(ring_distances(6), sigma=2.0)
        assert g.adjacency[0, 0] == 1.0

    def test_sigma_distance_gives_inverse_e(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        g = build_adjacency(d, sigma=2.0)
        assert g.adjacency[0, 1] == pytest.approx(math.exp(-1), abs=1e-12)

    def test_thresholded_pair_is_zero(self):
        g = build_adjacency(ring_distances(8), sigma=3.0, kappa=2.0)
        assert g.adjacency[0, 2] == 0.0  # distance 2 >= kappa
        assert g.adjacency[0, 1] > 0.0

    def test_default_sigma_is_distance_std(self):
        d = ring_distances(7)
        g = build_adjacency(d)
        off = d[~np.eye(7, dtype=bool)]
        assert g.kernel_sigma == pytest.approx(off.std())

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ParameterError):
            build_adjacency(ring_distances(5), sigma=0.0)
        with pytest.raises(ParameterError, match="sigma"):  # NaN passes `sigma <= 0`
            build_adjacency(ring_distances(5), sigma=float("nan"))

    @pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan")])
    def test_nonpositive_kappa_rejected(self, kappa):
        with pytest.raises(ParameterError, match="kappa"):
            build_adjacency(ring_distances(5), sigma=2.0, kappa=kappa)

    def test_infinite_distance_gives_zero_weight(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        g = build_adjacency(d, sigma=1.0)
        assert g.adjacency[0, 1] == 0.0

    def test_negative_distance_rejected(self):
        d = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            build_adjacency(d, sigma=1.0)

    @pytest.mark.parametrize("odd", [-np.inf, np.nan])
    def test_nonfinite_distance_is_no_edge_not_negative(self, odd):
        d = np.array([[0.0, odd, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        g = build_adjacency(d, sigma=1.0)
        assert g.adjacency[0, 1] == 0.0 and g.adjacency[0, 2] > 0.0

    def test_partition_validation(self):
        g = build_adjacency(ring_distances(5), sigma=2.0)
        with pytest.raises(ParameterError):
            g.with_partition(np.array([0, 1, 2]), np.array([2, 3, 4]))  # overlap


def dense_reference(d, sigma, kappa):
    """The kernel adjacency evaluated densely over all n x n pairs: the
    reference that ``build_adjacency``'s CSR must match bitwise."""
    finite = np.isfinite(d)
    a = np.zeros_like(d)
    a[finite] = np.exp(-((d[finite] / sigma) ** 2))
    a[finite & (d >= kappa)] = 0.0
    np.fill_diagonal(a, 1.0)
    return a


INF = np.inf
ORACLE_DISTANCES = {
    "directed": np.array(
        [[0.0, 1.0, 2.5, 0.3], [3.0, 0.0, 0.7, 1.9], [0.2, 4.0, 0.0, 2.2], [1.1, 0.4, 3.3, 0.0]]
    ),
    "inf": np.array(
        [[0.0, INF, 1.0, INF], [INF, 0.0, INF, 2.0], [1.5, INF, 0.0, INF], [INF, INF, INF, INF]]
    ),
    "self-pair": np.array([[0.5, 1.0, 2.0], [1.0, 3.0, 1.2], [2.0, 0.8, 0.0]]),
    "underflow": np.array([[0.0, 1.0, 60.0], [1.0, 0.0, 0.5], [60.0, 0.5, 0.0]]),
}


class TestCsrAdjacency:
    @pytest.mark.parametrize("kappa", [2.0, INF])
    @pytest.mark.parametrize("case", sorted(ORACLE_DISTANCES))
    def test_bitwise_equal_to_dense_formula(self, case, kappa):
        d = ORACLE_DISTANCES[case]
        g = build_adjacency(d, sigma=1.0, kappa=kappa)
        want = sparse.csr_array(dense_reference(d, 1.0, kappa))
        got = g.adjacency
        assert got.dtype == np.float64
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))
        ours, theirs = normalize(got), normalize(want)
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(ours, part), getattr(theirs, part))

    @pytest.mark.parametrize("kappa", [2.5, INF])
    def test_estimated_sigma_matches_dense_formula(self, kappa):
        d = ring_distances(9)
        g = build_adjacency(d, kappa=kappa)
        want = sparse.csr_array(dense_reference(d, g.kernel_sigma, kappa))
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(g.adjacency, part), getattr(want, part))

    def test_partition_copies_share_the_adjacency(self):
        g = build_adjacency(ring_distances(6), sigma=2.0)
        assert g.with_partition(np.arange(4), np.array([4, 5])).adjacency is g.adjacency

    def test_dense_adjacency_rejected(self):
        g = build_adjacency(ring_distances(4), sigma=2.0)
        with pytest.raises(ParameterError, match="csr_array"):
            replace(g, adjacency=g.adjacency.toarray())

    def test_entries_outside_unit_interval_rejected(self):
        g = build_adjacency(ring_distances(4), sigma=2.0)
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            replace(g, adjacency=2.0 * g.adjacency)

    def test_diagonal_must_be_one(self):
        g = build_adjacency(ring_distances(4), sigma=2.0)
        with pytest.raises(ParameterError, match="diagonal"):
            replace(g, adjacency=sparse.csr_array(g.adjacency.toarray() * (1 - np.eye(4))))

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_node_ids_must_name_every_node(self, count):
        with pytest.raises(ParameterError, match="node ids"):
            build_adjacency(np.zeros((3, 3)), sigma=1.0, node_ids=tuple("abcd"[:count]))


class TestNormalize:
    def test_identity(self):
        p = normalize(csr(np.eye(3)))
        assert p.format == "csr"
        np.testing.assert_array_equal(p.toarray(), np.eye(3))

    def test_row_definition(self):
        p = normalize(csr([[2.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]]))
        np.testing.assert_allclose(p.toarray()[0], [0.5, 0.5, 0.0])

    def test_zero_row_stays_zero(self):
        p = normalize(csr([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(p.toarray()[0], [0.0, 0.0])

    @pytest.mark.parametrize("graph", ["ring", "directed"])
    def test_view_products_equal_csr_products_bitwise(self, rng, graph):
        """The layers multiply by ``p.T``, a CSC view of the forward matrix:
        its products are bitwise those of a CSR copy."""
        d = ring_distances(12) if graph == "ring" else rng.uniform(0.2, 3.0, (12, 12))
        p = normalize(build_adjacency(d, sigma=1.0, kappa=2.0).adjacency)
        copy = p.T.tocsr()
        for cols in (1, 48):
            h = rng.normal(size=(12, cols))
            np.testing.assert_array_equal(p.T @ h, copy @ h)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(0, 10)))
    def test_nonzero_rows_sum_to_one(self, a):
        sums = normalize(csr(a)).toarray().sum(axis=1)
        degrees = a.sum(axis=1)
        for s, deg in zip(sums, degrees):
            if deg > 0:
                assert s == pytest.approx(1.0, abs=1e-9)
            else:
                assert s == 0.0


def explicit_chebyshev_matrices(abar, order):
    mats = [np.eye(abar.shape[0]), abar.copy()]
    for _ in range(2, order + 1):
        mats.append(2 * abar @ mats[-1] - mats[-2])
    return mats[1 : order + 1]


class TestChebyshev:
    def test_first_order_is_abar_h(self, rng):
        abar = normalize(csr(ring_distances(5) < 2))
        h = rng.normal(size=(5, 3))
        terms = chebyshev_terms(abar, h, 1)
        assert len(terms) == 1
        np.testing.assert_allclose(terms[0], abar.toarray() @ h, atol=1e-12)

    def test_identity_transition_keeps_h(self, rng):
        h = rng.normal(size=(4, 2))
        for term in chebyshev_terms(np.eye(4), h, 4):
            np.testing.assert_allclose(term, h, atol=1e-12)

    def test_second_order_matches_polynomial(self, rng):
        abar = rng.uniform(0, 1, (4, 4))
        h = rng.normal(size=(4, 2))
        terms = chebyshev_terms(abar, h, 2)
        explicit = (2 * abar @ abar - np.eye(4)) @ h
        np.testing.assert_allclose(terms[1], explicit, atol=1e-10)

    def test_recursion_matches_explicit_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            order = int(rng.integers(1, 5))
            abar = rng.uniform(-1, 1, (n, n))
            h = rng.normal(size=(n, 3))
            terms = chebyshev_terms(abar, h, order)
            for mat, term in zip(explicit_chebyshev_matrices(abar, order), terms):
                np.testing.assert_allclose(term, mat @ h, atol=1e-8)

    def test_order_below_one_rejected(self):
        with pytest.raises(ParameterError):
            chebyshev_terms(np.eye(2), np.ones((2, 1)), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            chebyshev_terms(np.eye(3), np.ones((2, 1)), 1)


def dense_union(a, lists):
    """The oracle for ``subgraph``: a dense block-diagonal of ``np.ix_``
    gathers, one block per node list."""
    sizes = [len(nodes) for nodes in lists]
    out = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for nodes, size in zip(lists, sizes):
        out[start : start + size, start : start + size] = a[np.ix_(nodes, nodes)]
        start += size
    return out


class TestSubgraph:
    def test_full_selection_is_identity(self):
        g = build_adjacency(ring_distances(6), sigma=2.0)
        np.testing.assert_array_equal(
            subgraph(g.adjacency, [np.arange(6)]).toarray(), g.adjacency.toarray()
        )

    def test_single_index(self):
        g = build_adjacency(ring_distances(6), sigma=2.0)
        np.testing.assert_array_equal(subgraph(g.adjacency, [[3]]).toarray(), [[1.0]])

    def test_permuted_matches_naive_gather(self, rng):
        a = rng.uniform(0, 1, (15, 15))
        idx = rng.permutation(15)[:7]
        got = subgraph(csr(a), [idx]).toarray()
        naive = np.empty((7, 7))
        for p in range(7):
            for q in range(7):
                naive[p, q] = a[idx[p], idx[q]]
        np.testing.assert_array_equal(got, naive)

    def test_csr_gather_matches_dense_oracle_on_permuted_indices(self, rng):
        g = build_adjacency(ring_distances(30), sigma=2.0, kappa=4.0)
        assert g.adjacency.nnz < 30 * 30  # a sparse graph, so the gather drops columns
        for size in (0, 1, 7, 19, 30):
            idx = rng.permutation(30)[:size]
            got = subgraph(g.adjacency, [idx])
            assert got.format == "csr" and got.shape == (size, size)
            np.testing.assert_array_equal(got.toarray(), g.adjacency.toarray()[np.ix_(idx, idx)])

    @pytest.mark.parametrize(
        "lists",
        [
            [[2, 3, 4], [4, 5, 2]],
            [[1, 4], [], [5, 0, 2]],
            [[]],
            [],
            [[7, 0, 3, 11], [11, 3, 0, 7], [5, 9]],
            [[8, 1, 6, 2, 0]],
            [[0, 1, 2], [0, 1, 2], [2, 1, 0]],
        ],
        ids=["node-in-two-lists", "empty-list", "only-empty", "no-lists", "permuted-lists",
             "single-list", "repeat-across-lists"],
    )
    def test_union_matches_dense_block_oracle(self, lists):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, (12, 12)) * (rng.uniform(size=(12, 12)) < 0.4)
        got = subgraph(csr(a), lists)
        assert got.format == "csr"
        np.testing.assert_array_equal(got.toarray(), dense_union(a, lists))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            subgraph(csr(np.eye(3)), [[0, 3]])
        with pytest.raises(IndexError):
            subgraph(csr(np.eye(3)), [[0], [-1]])

    def test_duplicates_rejected(self):
        with pytest.raises(ParameterError, match="repeats within one"):
            subgraph(csr(np.eye(3)), [[0, 0]])
        with pytest.raises(ParameterError, match="repeats within one"):
            subgraph(csr(np.eye(3)), [[1], [0, 2, 0]])


def test_block_diagonal_is_disjoint_union(rng):
    """The union of several lists is the block-diagonal of each list's own
    subgraph, before and after row normalization."""
    g = build_adjacency(ring_distances(12), sigma=2.0, kappa=3.0)
    lists = [rng.permutation(12)[:size] for size in (5, 1, 12)]
    union = subgraph(g.adjacency, lists)
    for transform in (lambda m: m, normalize):
        want = np.zeros((18, 18))
        for (lo, hi), nodes in zip(((0, 5), (5, 6), (6, 18)), lists):
            want[lo:hi, lo:hi] = transform(subgraph(g.adjacency, [nodes])).toarray()
        # Row normalization acts row by row, so it commutes with the union.
        np.testing.assert_array_equal(transform(union).toarray(), want)


def test_normalize_after_subgraph_differs_from_before():
    """Counterexample: slicing a row-normalized matrix loses mass to dropped
    neighbors, so training must normalize after extraction."""
    a = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
        ]
    )
    idx = [0, 1]
    after = normalize(subgraph(csr(a), [idx])).toarray()
    before = normalize(csr(a)).toarray()[np.ix_(idx, idx)]
    assert not np.allclose(after, before)
    np.testing.assert_allclose(after.sum(axis=1), 1.0)
    assert (before.sum(axis=1) < 1.0).any()


NOT_FLOAT64_CSR = {
    "dense": lambda a: a.toarray(),
    "csc": lambda a: a.tocsc(),
    "float32 csr": lambda a: a.astype(np.float32),
}


@pytest.mark.parametrize("kind", sorted(NOT_FLOAT64_CSR))
class TestOnlyFloat64Csr:
    """The graph helpers take their adjacency as given: anything but a
    float64 CSR array is refused, never converted."""

    @pytest.fixture
    def wrong(self, kind):
        return NOT_FLOAT64_CSR[kind](build_adjacency(ring_distances(5), sigma=2.0).adjacency)

    def test_normalize(self, wrong):
        with pytest.raises(ParameterError, match="float64 scipy.sparse.csr_array"):
            normalize(wrong)

    def test_subgraph(self, wrong):
        with pytest.raises(ParameterError, match="float64 scipy.sparse.csr_array"):
            subgraph(wrong, [[0, 2]])

    def test_road_graph(self, wrong):
        g = build_adjacency(ring_distances(5), sigma=2.0)
        with pytest.raises(ParameterError, match="float64 scipy.sparse.csr_array"):
            replace(g, adjacency=wrong)
