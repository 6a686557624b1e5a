import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapcast import autodiff as ad
from gapcast.graph import (
    ParameterError,
    RoadGraph,
    build_adjacency,
    chebyshev_terms,
    normalize,
    subgraph,
)


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

    def test_infinite_distance_gives_zero_weight(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        g = build_adjacency(d, sigma=1.0)
        assert g.adjacency[0, 1] == 0.0

    def test_negative_distance_rejected(self):
        d = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            build_adjacency(d, sigma=1.0)

    def test_partition_validation(self):
        g = build_adjacency(ring_distances(5), sigma=2.0)
        with pytest.raises(ParameterError):
            g.with_partition(np.array([0, 1, 2]), np.array([2, 3, 4]))  # overlap


class TestNormalize:
    def test_identity(self):
        pair = normalize(np.eye(3))
        np.testing.assert_array_equal(pair.forward, np.eye(3))
        np.testing.assert_array_equal(pair.backward, np.eye(3))

    def test_row_definition(self):
        pair = normalize(np.array([[2.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]]))
        np.testing.assert_allclose(pair.forward[0], [0.5, 0.5, 0.0])

    def test_zero_row_stays_zero(self):
        pair = normalize(np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(pair.forward[0], [0.0, 0.0])

    def test_backward_is_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (5, 5))
        pair = normalize(a)
        np.testing.assert_array_equal(pair.backward, pair.forward.T)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(0, 10)))
    def test_nonzero_rows_sum_to_one(self, a):
        pair = normalize(a)
        sums = pair.forward.sum(axis=1)
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
        abar = normalize(ring_distances(5) < 2).forward
        h = ad.constant(rng.normal(size=(5, 3)))
        terms = chebyshev_terms(abar, h, 1)
        assert len(terms) == 1
        np.testing.assert_allclose(terms[0].values, abar @ h.values, atol=1e-12)

    def test_identity_transition_keeps_h(self, rng):
        h = ad.constant(rng.normal(size=(4, 2)))
        for term in chebyshev_terms(np.eye(4), h, 4):
            np.testing.assert_allclose(term.values, h.values, atol=1e-12)

    def test_second_order_matches_polynomial(self, rng):
        abar = rng.uniform(0, 1, (4, 4))
        h = ad.constant(rng.normal(size=(4, 2)))
        terms = chebyshev_terms(abar, h, 2)
        explicit = (2 * abar @ abar - np.eye(4)) @ h.values
        np.testing.assert_allclose(terms[1].values, explicit, atol=1e-10)

    def test_recursion_matches_explicit_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            order = int(rng.integers(1, 5))
            abar = rng.uniform(-1, 1, (n, n))
            h = ad.constant(rng.normal(size=(n, 3)))
            terms = chebyshev_terms(abar, h, order)
            for mat, term in zip(explicit_chebyshev_matrices(abar, order), terms):
                np.testing.assert_allclose(term.values, mat @ h.values, atol=1e-8)

    def test_order_below_one_rejected(self):
        with pytest.raises(ParameterError):
            chebyshev_terms(np.eye(2), ad.constant(np.ones((2, 1))), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            chebyshev_terms(np.eye(3), ad.constant(np.ones((2, 1))), 1)

    def test_gradients_flow_through_h(self, rng):
        abar = rng.uniform(0, 1, (4, 4))
        h = ad.parameter(rng.normal(size=(4, 2)))
        with ad.Tape() as tape:
            loss = ad.reduce_sum(chebyshev_terms(abar, h, 3)[-1])
        tape.backward(loss)
        assert h.grad is not None and np.isfinite(h.grad).all()


class TestSubgraph:
    def test_full_selection_is_identity(self):
        g = build_adjacency(ring_distances(6), sigma=2.0)
        np.testing.assert_array_equal(subgraph(g, np.arange(6)), g.adjacency)

    def test_single_index(self):
        g = build_adjacency(ring_distances(6), sigma=2.0)
        np.testing.assert_array_equal(subgraph(g, [3]), [[1.0]])

    def test_permuted_matches_naive_gather(self, rng):
        a = rng.uniform(0, 1, (15, 15))
        idx = rng.permutation(15)[:7]
        got = subgraph(a, idx)
        naive = np.empty((7, 7))
        for p in range(7):
            for q in range(7):
                naive[p, q] = a[idx[p], idx[q]]
        np.testing.assert_array_equal(got, naive)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            subgraph(np.eye(3), [0, 3])

    def test_duplicates_rejected(self):
        with pytest.raises(ParameterError):
            subgraph(np.eye(3), [0, 0])


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
    after = normalize(subgraph(a, idx)).forward
    before = normalize(a).forward[np.ix_(idx, idx)]
    assert not np.allclose(after, before)
    np.testing.assert_allclose(after.sum(axis=1), 1.0)
    assert (before.sum(axis=1) < 1.0).any()
