import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapcast import training
from gapcast.data import (
    MAX_FILL_GAP,
    DataError,
    NodeIdMismatch,
    SpeedSeries,
    SplitSpec,
    fill_small_gaps,
    generate_synthetic,
    hide_locations,
    split,
)
from gapcast.evaluate import (
    ImputationError,
    WindowPredictions,
    collect_predictions,
    knn_impute,
    make_report,
    mean_impute,
    row_metrics,
    two_step_pipeline,
)
from gapcast.graph import subgraph
from gapcast.model import EvidentialOutput, ModelConfig, nig_nll_values
from gapcast.training import (
    TrainConfig,
    predict_full,
    predict_windows,
    train,
    valid_time_steps,
)

from test_model import nig_marginal_nll_quadrature
from test_training import nig_rows, per_window_forward


# 1-D reference formulas for the oracles below, kept apart from row_metrics.
def rmse(pred, truth) -> float:
    p, t = np.ravel(pred), np.ravel(truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mae(pred, truth) -> float:
    p, t = np.ravel(pred), np.ravel(truth)
    return float(np.mean(np.abs(p - t)))


def r2(pred, truth) -> float:
    p, t = np.ravel(pred), np.ravel(truth)
    sst = float(np.sum((t - t.mean()) ** 2))
    if sst == 0.0:
        return float("nan")
    return 1.0 - float(np.sum((p - t) ** 2)) / sst


def one_row(pred, truth):
    """row_metrics on a single row, with zero NLL and epistemic cells."""
    pred, truth = np.atleast_2d(np.asarray(pred, float)), np.atleast_2d(np.asarray(truth, float))
    zeros = np.zeros_like(pred)
    return {name: float(col[0]) for name, col in row_metrics(pred, truth, zeros, zeros).items()}


class TestPointMetrics:
    def test_perfect_prediction(self):
        got = one_row([1, 2], [1, 2])
        assert got["rmse"] == 0.0
        assert got["mae"] == 0.0
        assert got["r2"] == 1.0

    def test_hand_values(self):
        got = one_row([1, 3], [0, 0])
        assert got["mae"] == pytest.approx(2.0)
        assert got["rmse"] == pytest.approx(math.sqrt(5))

    def test_mean_prediction_gives_zero_r2(self):
        truth = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, truth.mean())
        assert one_row(pred, truth)["r2"] == pytest.approx(0.0)

    def test_zero_variance_truth_r2_nan(self):
        assert math.isnan(one_row([1.0, 2.0], [3.0, 3.0])["r2"])

    def test_overflowing_r2_is_minus_inf_without_warning(self):
        # SST is subnormal, so SSE / SST overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = one_row([1.0, 1.0], [0.0, 1e-155])
        assert got["r2"] == -math.inf

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            one_row([], [])
        with pytest.raises(DataError):
            one_row([1.0, 2.0], [1.0, 2.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 8, elements=st.floats(-100, 100)),
        arrays(np.float64, 8, elements=st.floats(-100, 100)),
    )
    def test_rmse_at_least_mae(self, pred, truth):
        got = one_row(pred, truth)
        assert got["rmse"] >= got["mae"] - 1e-12


def series_with_graph(rng, n=8, steps=60, hide=3):
    graph, series = generate_synthetic(n, steps, rng)
    graph = hide_locations(graph, hide, np.random.default_rng(1))
    return graph, series


class TestMeanImpute:
    def test_single_observable_copied_everywhere(self, rng):
        graph, series = series_with_graph(rng, n=5, hide=4)
        out = mean_impute(series, graph)
        obs = graph.observable[0]
        for e in graph.missing:
            np.testing.assert_allclose(out.values[:, e], series.values[:, obs])

    def test_two_observables_average(self, rng):
        graph, series = series_with_graph(rng, n=6, hide=4)
        out = mean_impute(series, graph)
        expected = series.values[:, graph.observable].mean(axis=1)
        for e in graph.missing:
            np.testing.assert_allclose(out.values[:, e], expected)

    def test_imputed_columns_have_no_cross_node_variance(self, rng):
        graph, series = series_with_graph(rng)
        out = mean_impute(series, graph)
        sub = out.values[:, graph.missing]
        assert np.ptp(sub, axis=1).max() == 0.0

    def test_observable_columns_untouched(self, rng):
        graph, series = series_with_graph(rng)
        out = mean_impute(series, graph)
        np.testing.assert_array_equal(
            out.values[:, graph.observable], series.values[:, graph.observable]
        )


class TestKnnImpute:
    def test_single_reachable_neighbour_copied(self, rng):
        # missing node 3 reaches only observable node 0 of the three
        from gapcast.graph import build_adjacency

        d = np.full((4, 4), np.inf)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = d[1, 2] = d[2, 1] = d[0, 3] = d[3, 0] = 1.0
        graph = build_adjacency(d, sigma=1.0).with_partition(np.arange(3), np.array([3]))
        series = SpeedSeries(tuple("abcd"), np.arange(5.0) * 300, rng.normal(size=(5, 4)))
        out = knn_impute(series, graph)
        np.testing.assert_array_equal(out.values[:, 3], series.values[:, 0])

    def test_equidistant_average(self):
        # missing node 1 exactly between observables 0 and 2
        d = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        )
        from gapcast.graph import build_adjacency

        graph = build_adjacency(d, sigma=1.0, node_ids=("a", "b", "c"))
        graph = graph.with_partition(np.array([0, 2]), np.array([1]))
        values = np.zeros((4, 3))
        values[:, 0] = 10.0
        values[:, 2] = 20.0
        series = SpeedSeries(("a", "b", "c"), np.arange(4.0) * 300, values)
        out = knn_impute(series, graph)
        np.testing.assert_allclose(out.values[:, 1], 15.0)

    def test_matches_bruteforce_oracle(self, rng):
        graph, series = series_with_graph(rng, n=15, hide=5)
        k = 3
        out = knn_impute(series, graph)
        for e in graph.missing:
            pairs = sorted(
                ((graph.distances[e, o], o) for o in graph.observable),
                key=lambda p: (p[0], p[1]),
            )
            chosen = [o for _, o in pairs[:k]]
            np.testing.assert_allclose(out.values[:, e], series.values[:, chosen].mean(axis=1))

    def test_isolated_node_rejected(self, rng):
        from gapcast.graph import build_adjacency

        d = np.full((3, 3), np.inf)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 1.0
        graph = build_adjacency(d, sigma=1.0).with_partition(
            np.array([0, 1]), np.array([2])
        )
        values = np.ones((5, 3))
        series = SpeedSeries(("a", "b", "c"), np.arange(5.0) * 300, values)
        with pytest.raises(ImputationError):
            knn_impute(series, graph)


class TestNllReporting:
    def test_symmetric_in_truth_shift(self):
        params = dict(gamma=np.zeros(3), nu=np.ones(3), alpha=np.full(3, 2.0), beta=np.ones(3))
        up = nig_nll_values(y=np.full(3, 0.9), **params)
        down = nig_nll_values(y=np.full(3, -0.9), **params)
        np.testing.assert_allclose(up, down)

    def test_tighter_beta_lower_nll_at_zero_residual(self):
        tight = nig_nll_values(np.zeros(1), np.ones(1), np.full(1, 2.0), np.array([0.5]), np.zeros(1))
        wide = nig_nll_values(np.zeros(1), np.ones(1), np.full(1, 2.0), np.array([2.0]), np.zeros(1))
        assert tight[0] < wide[0]
        # same ordering out of the quadrature oracle
        q_tight = nig_marginal_nll_quadrature(0.0, 0.0, 1.0, 2.0, 0.5)
        q_wide = nig_marginal_nll_quadrature(0.0, 0.0, 1.0, 2.0, 2.0)
        assert q_tight < q_wide
        assert tight[0] == pytest.approx(q_tight, abs=1e-4)


@pytest.fixture(scope="module")
def trained_world():
    gen = np.random.default_rng(0)
    graph, series = generate_synthetic(10, 400, gen)
    graph = hide_locations(graph, 2, np.random.default_rng(1))
    cfg = TrainConfig(
        iterations=40, samples_per_iter=4, batch_size=4, history=8, horizon=2,
        lr=3e-3, model=ModelConfig(hidden_dim=12),
    )
    tr, va, te = split(series, SplitSpec(), min_steps=10)
    result = train(graph, tr, cfg, np.random.default_rng(2))
    return graph, series, te, cfg, result.model


class TestReports:
    def test_report_contains_all_metrics_and_groups(self, trained_world):
        graph, _, te, cfg, model = trained_world
        wp = collect_predictions(model, graph, te, te, stride=2)
        report = make_report(wp, graph, horizon=cfg.horizon)
        for group in ("observable", "missing"):
            for metric in ("rmse", "mae", "r2", "nll"):
                assert np.isfinite(report.groups[group][metric])
        assert len(report.per_node) == graph.n

    def test_group_split_is_pure_bookkeeping(self, trained_world):
        graph, _, te, cfg, model = trained_world
        wp = collect_predictions(model, graph, te, te, stride=2)
        report = make_report(wp, graph, horizon=cfg.horizon)
        obs = graph.observable
        pred, truth = wp.gamma[:, obs], wp.truth[:, obs]
        assert report.groups["observable"]["rmse"] == rmse(pred, truth)
        assert report.groups["observable"]["mae"] == mae(pred, truth)
        assert report.groups["observable"]["r2"] == r2(pred, truth)

    def test_group_nll_aggregates_per_node_means(self, trained_world):
        graph, _, te, cfg, model = trained_world
        wp = collect_predictions(model, graph, te, te, stride=2)
        report = make_report(wp, graph, horizon=cfg.horizon)
        per_node = [r["nll"] for r in report.per_node if r["group"] == "missing"]
        assert report.groups["missing"]["nll"] == pytest.approx(np.mean(per_node), rel=1e-12)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, trained_world, stride):
        graph, _, te, _, model = trained_world
        with pytest.raises(DataError, match="stride"):
            collect_predictions(model, graph, te, te, stride=stride)

    def test_csv_outputs(self, trained_world, tmp_path):
        graph, _, te, cfg, model = trained_world
        wp = collect_predictions(model, graph, te, te, stride=2)
        report = make_report(wp, graph, horizon=cfg.horizon)
        report.to_csv(tmp_path / "m.csv")
        report.per_node_csv(tmp_path / "pn.csv")
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0] == "group,rmse,mae,r2,nll"
        assert len(lines) == 3
        pn = (tmp_path / "pn.csv").read_text().strip().splitlines()
        assert len(pn) == graph.n + 1
        assert report.format_table().count("\n") == 2


def collect_oracle(model, graph, series, stride):
    """The per-window loop: every window with a gap-free observable history
    and a finite truth row, each through its own forward pass."""
    h, dt = model.history, model.horizon
    targets, rows = [], []
    for t in range(h - 1, series.steps - dt, stride):
        window = series.values[t - h + 1 : t + 1]
        if np.isfinite(window[:, graph.observable]).all() and np.isfinite(series.values[t + dt]).all():
            targets.append(t + dt)
            rows.append(per_window_forward(graph, window, model))
    return np.array(targets), np.stack(rows, axis=1)


class TestStackedCollection:
    """collect_predictions against the per-window loop it replaced."""

    def check(self, model, graph, series, stride):
        wp = collect_predictions(model, graph, series, series, stride=stride)
        targets, want = collect_oracle(model, graph, series, stride)
        np.testing.assert_array_equal(wp.target_steps, targets)
        np.testing.assert_array_equal(wp.truth, series.values[targets])
        np.testing.assert_allclose(nig_rows(wp.evidential), want, rtol=1e-12)
        return wp

    def test_last_chunk_partial(self, trained_world, monkeypatch):
        graph, _, te, _, model = trained_world
        monkeypatch.setattr(training, "INFERENCE_ROWS", 4 * graph.n)
        wp = self.check(model, graph, te, stride=1)
        assert wp.target_steps.size % 4 != 0

    def test_full_chunks_share_one_union(self, trained_world, monkeypatch):
        """One union serves every chunk: the short last chunk runs on a block
        sliced from it; the result is bit for bit a union per chunk."""
        graph, _, te, _, model = trained_world
        monkeypatch.setattr(training, "INFERENCE_ROWS", 4 * graph.n)
        built = []

        def counted(adjacency, node_lists):
            built.append(len(node_lists))
            return subgraph(adjacency, node_lists)

        monkeypatch.setattr(training, "subgraph", counted)
        wp = collect_predictions(model, graph, te, te, stride=1)
        ends = wp.target_steps - model.horizon
        assert ends.size > 8 and ends.size % 4 and built == [4]
        parts = [
            predict_windows(graph, te.values, chunk, model)
            for chunk in np.split(ends, np.arange(4, ends.size, 4))
        ]
        for name in ("gamma", "nu", "alpha_nig", "beta"):
            want = np.concatenate([getattr(p, name) for p in parts])
            np.testing.assert_array_equal(getattr(wp.evidential, name), want)

    def test_default_row_budget_one_pass(self, trained_world):
        graph, _, te, _, model = trained_world
        wp = self.check(model, graph, te, stride=1)
        assert wp.target_steps.size <= training.INFERENCE_ROWS // graph.n

    def test_stride_three(self, trained_world, monkeypatch):
        graph, _, te, _, model = trained_world
        monkeypatch.setattr(training, "INFERENCE_ROWS", 5 * graph.n)
        self.check(model, graph, te, stride=3)

    def test_observable_gap_skips_windows_mid_chunk(self, trained_world, monkeypatch):
        graph, _, te, _, model = trained_world
        monkeypatch.setattr(training, "INFERENCE_ROWS", 8 * graph.n)
        gap = MAX_FILL_GAP + 1  # longer than fill_small_gaps fills
        values = te.values.copy()
        values[20 : 20 + gap, graph.observable[0]] = np.nan
        gappy = replace(te, values=values)
        wp = self.check(model, graph, gappy, stride=1)
        # every window holding a gap step is gone, as is every window whose
        # truth row holds one, and the neighbours stay
        ends, last = wp.target_steps - model.horizon, 20 + gap - 1
        assert not ((ends >= 20 - model.horizon) & (ends < last + model.history)).any()
        assert {19 - model.horizon, last + model.history} <= set(ends.tolist())

    def test_one_step_gap_filled_within_its_windows(self, trained_world):
        graph, _, te, _, model = trained_world
        h, dt, at = model.history, model.horizon, 20
        values = te.values.copy()
        values[at, graph.observable[0]] = np.nan
        gappy = replace(te, values=values)
        wp = collect_predictions(model, graph, gappy, gappy, stride=1)
        ends = wp.target_steps - dt
        # every window less the one whose truth row holds the gap and the two
        # with the gap at their last or first step, which only a step outside
        # the window could fill: the windows training keeps
        every = np.arange(h - 1, te.steps - dt)
        np.testing.assert_array_equal(ends, np.setdiff1d(every, [at - dt, at, at + h - 1]))
        np.testing.assert_array_equal(ends, valid_time_steps(values, h, dt, graph.observable))
        assert at + 1 in ends  # a window through the gap is predicted
        for end in (at, at + h - 1):
            with pytest.raises(DataError, match="gaps at observable"):
                predict_windows(graph, values, np.array([end]), model)
        ev = predict_windows(graph, values, ends, model)
        filled = predict_windows(graph, fill_small_gaps(values), ends, model)
        for name in ("gamma", "nu", "alpha_nig", "beta"):
            np.testing.assert_array_equal(getattr(ev, name), getattr(filled, name))
            np.testing.assert_array_equal(getattr(wp.evidential, name), getattr(ev, name))
        # each window near the gap is predicted, or refused, as when given alone
        for end in range(at - 1, at + h + 1):
            window = values[end - h + 1 : end + 1]
            if end not in ends:
                with pytest.raises(DataError, match="gaps at observable"):
                    predict_full(graph, window, model)
                continue
            one = predict_full(graph, window, model).evidential
            np.testing.assert_allclose(
                nig_rows(one), nig_rows(wp.evidential)[:, np.flatnonzero(ends == end)[0]],
                rtol=1e-12,
            )

    def test_single_window(self, trained_world):
        graph, _, te, _, model = trained_world
        short = replace(
            te,
            timestamps=te.timestamps[: model.history + model.horizon],
            values=te.values[: model.history + model.horizon],
        )
        wp = self.check(model, graph, short, stride=1)
        assert wp.evidential.gamma.shape == (1, graph.n)

    def test_predict_full_equals_its_row(self, trained_world):
        graph, _, te, _, model = trained_world
        wp = collect_predictions(model, graph, te, te, stride=5)
        for row, target in enumerate(wp.target_steps):
            end = target - model.horizon
            one = predict_full(graph, te.values[end - model.history + 1 : end + 1], model)
            assert one.evidential.gamma.shape == (graph.n,)
            np.testing.assert_allclose(
                nig_rows(one.evidential), nig_rows(wp.evidential)[:, row], rtol=1e-12
            )


class TestMismatchedTruth:
    def test_shorter_truth_rejected(self, trained_world):
        graph, _, te, _, model = trained_world
        short = replace(te, timestamps=te.timestamps[:-5], values=te.values[:-5])
        with pytest.raises(DataError, match="steps"):
            collect_predictions(model, graph, te, short)

    def test_reordered_truth_rejected(self, trained_world):
        graph, _, te, _, model = trained_world
        flipped = replace(te, node_ids=te.node_ids[::-1], values=te.values[:, ::-1])
        with pytest.raises(DataError, match="node ids"):
            collect_predictions(model, graph, te, flipped)

    def test_input_permuted_against_graph_rejected(self, trained_world):
        graph, _, te, _, model = trained_world
        flipped = replace(te, node_ids=te.node_ids[::-1], values=te.values[:, ::-1])
        with pytest.raises(NodeIdMismatch, match="node index 0"):
            collect_predictions(model, graph, flipped, flipped)

    def test_wider_truth_rejected(self, trained_world):
        graph, _, te, _, model = trained_world
        wide = replace(
            te,
            node_ids=te.node_ids + tuple(f"x{i}" for i in range(te.n)),
            values=np.hstack([te.values, te.values]),
        )
        with pytest.raises(DataError, match="node ids"):
            collect_predictions(model, graph, te, wide)

    def test_input_wider_than_graph_rejected(self, trained_world):
        graph, _, te, _, model = trained_world
        wide = replace(
            te,
            node_ids=te.node_ids + tuple(f"x{i}" for i in range(te.n)),
            values=np.hstack([te.values, te.values]),
        )
        with pytest.raises(DataError, match="nodes"):
            collect_predictions(model, graph, wide, wide)


def make_report_oracle(wp, graph):
    """The per-node loop: three metric calls and two means per node."""
    ev = wp.evidential
    nll = nig_nll_values(wp.gamma, ev.nu, ev.alpha_nig, ev.beta, wp.truth)
    epi = ev.epistemic
    return [
        {
            "rmse": rmse(wp.gamma[:, i], wp.truth[:, i]),
            "mae": mae(wp.gamma[:, i], wp.truth[:, i]),
            "r2": r2(wp.gamma[:, i], wp.truth[:, i]),
            "nll": float(nll[:, i].mean()),
            "epistemic": float(epi[:, i].mean()),
        }
        for i in range(graph.n)
    ]


class TestVectorisedReport:
    @pytest.mark.parametrize("windows", [1, 2, 37, 571])
    def test_per_node_equals_loop_oracle_exactly(self, windows):
        """Per-node and per-group values equal the 1-D formulas bit for bit."""
        gen = np.random.default_rng(windows)
        graph, _ = generate_synthetic(9, 30, gen)
        graph = hide_locations(graph, 3, np.random.default_rng(1))
        shape = (windows, graph.n)
        truth = gen.uniform(20, 70, shape)
        truth[:, 4] = 55.0  # constant truth: R^2 is NaN
        wp = WindowPredictions(
            target_steps=np.arange(windows),
            truth=truth,
            evidential=EvidentialOutput(
                gamma=truth + gen.normal(0, 3, shape),
                nu=gen.uniform(0.1, 5, shape),
                alpha_nig=gen.uniform(1.1, 6, shape),
                beta=gen.uniform(0.5, 30, shape),
            ),
        )
        report = make_report(wp, graph, horizon=2)
        want = make_report_oracle(wp, graph)
        missing = set(graph.missing.tolist())
        for i, (got, row) in enumerate(zip(report.per_node, want)):
            assert got["node_index"] == i and got["node_id"] == graph.node_ids[i]
            assert got["group"] == ("missing" if i in missing else "observable")
            for name, value in row.items():
                assert type(got[name]) is float
                assert got[name] == value or (math.isnan(value) and math.isnan(got[name])), (
                    name, i, got[name], value)
        nll = nig_nll_values(wp.gamma, wp.nu, wp.alpha, wp.beta, wp.truth)
        for group, nodes in (("observable", graph.observable), ("missing", graph.missing)):
            pred, truth_g = wp.gamma[:, nodes], wp.truth[:, nodes]
            assert report.groups[group] == {
                "rmse": rmse(pred, truth_g),
                "mae": mae(pred, truth_g),
                "r2": r2(pred, truth_g),
                "nll": float(np.mean(nll[:, nodes].ravel())),
            }

    def test_trained_model_report_equals_loop_oracle(self, trained_world):
        graph, _, te, cfg, model = trained_world
        wp = collect_predictions(model, graph, te, te)
        report = make_report(wp, graph, horizon=cfg.horizon)
        for got, row in zip(report.per_node, make_report_oracle(wp, graph)):
            assert {k: got[k] for k in row} == row


class TestTwoStepPipeline:
    def test_unknown_imputer_rejected(self, rng):
        graph, series = series_with_graph(rng)
        with pytest.raises(DataError):
            two_step_pipeline("oracle", graph, series, SplitSpec(), TrainConfig(), rng)

    def test_degenerate_no_missing_equals_plain_training(self):
        gen = np.random.default_rng(0)
        graph, series = generate_synthetic(8, 300, gen)  # nothing hidden
        cfg = TrainConfig(
            iterations=10, samples_per_iter=4, batch_size=4, history=6, horizon=2,
            lr=3e-3, model=ModelConfig(hidden_dim=8),
        )
        report = two_step_pipeline(
            "mean", graph, series, SplitSpec(), cfg, np.random.default_rng(5)
        )
        # reference: identical no-mask training on the same (untouched) series
        from dataclasses import replace
        from gapcast.evaluate import collect_predictions as collect

        tr, _, te = split(series, SplitSpec(), min_steps=8)
        base_cfg = replace(cfg, mask_training=False, loss_alpha=0.0)
        result = train(graph, tr, base_cfg, np.random.default_rng(5))
        wp = collect(result.model, graph, te, te)
        assert report.groups["observable"]["rmse"] == pytest.approx(
            rmse(wp.gamma, wp.truth), rel=1e-12
        )
        assert math.isnan(report.groups["missing"]["rmse"])

    def test_report_structure(self, rng):
        graph, series = generate_synthetic(8, 300, np.random.default_rng(3))
        graph = hide_locations(graph, 2, np.random.default_rng(4))
        cfg = TrainConfig(
            iterations=8, samples_per_iter=4, batch_size=4, history=6, horizon=2,
            lr=3e-3, model=ModelConfig(hidden_dim=8),
        )
        report = two_step_pipeline(
            "knn", graph, series, SplitSpec(), cfg, np.random.default_rng(6)
        )
        for group in ("observable", "missing"):
            for metric in ("rmse", "mae", "r2", "nll"):
                assert metric in report.groups[group]
