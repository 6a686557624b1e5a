import numpy as np
import pytest

from gapcast import autodiff as ad
from gapcast.data import DataError, SplitSpec, generate_synthetic, hide_locations, split
from gapcast.model import ForwardPass, ModelConfig
from gapcast.training import (
    Scaler,
    SubgraphSample,
    TrainConfig,
    TrainingDiverged,
    compute_loss,
    draw_sample,
    load_model,
    predict_full,
    save_model,
    train,
    valid_time_steps,
)


def tiny_cfg(**kw):
    defaults = dict(
        iterations=3,
        samples_per_iter=4,
        batch_size=2,
        history=6,
        horizon=2,
        lr=1e-3,
        model=ModelConfig(hidden_dim=8),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture
def small_world(rng):
    graph, series = generate_synthetic(10, 200, rng)
    graph = hide_locations(graph, 2, np.random.default_rng(0))
    return graph, series


class TestConfigValidation:
    def test_bad_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_alpha=-0.1)

    def test_bad_point_loss(self):
        with pytest.raises(ValueError):
            TrainConfig(point_loss="huber")


class TestValidTimeSteps:
    def test_too_short_series(self):
        with pytest.raises(DataError):
            valid_time_steps(np.ones((5, 2)), history=4, horizon=2, columns=np.array([0, 1]))

    def test_gap_windows_excluded(self):
        values = np.ones((20, 2))
        values[10, 0] = np.nan
        ts = valid_time_steps(values, history=3, horizon=1, columns=np.array([0, 1]))
        # windows touching step 10 (t in 10..12) and target at 10 (t=9) are gone
        for t in (9, 10, 11, 12):
            assert t not in ts
        assert 8 in ts and 13 in ts


class TestDrawSample:
    def test_two_observable_forces_one_and_one(self, rng):
        graph, series = generate_synthetic(6, 60, rng)
        graph = graph.with_partition(np.array([1, 4]), np.array([0, 2, 3, 5]))
        cfg = tiny_cfg()
        s = draw_sample(graph, series.values, cfg, np.random.default_rng(0))
        assert s.reserved.size == 1 and s.masked.size == 1

    def test_fixed_seed_reproducible(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        a = draw_sample(graph, series.values, cfg, np.random.default_rng(11))
        b = draw_sample(graph, series.values, cfg, np.random.default_rng(11))
        np.testing.assert_array_equal(a.node_indices, b.node_indices)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.t == b.t

    def test_contracts_over_many_draws(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        gen = np.random.default_rng(7)
        observable = set(graph.observable.tolist())
        masked_seen = set()
        steps = valid_time_steps(series.values, cfg.history, cfg.horizon, graph.observable)
        for _ in range(2000):
            s = draw_sample(graph, series.values, cfg, gen, steps)
            nodes = set(s.node_indices.tolist())
            assert nodes <= observable
            assert set(s.reserved.tolist()) | set(s.masked.tolist()) == nodes
            assert not (set(s.reserved.tolist()) & set(s.masked.tolist()))
            assert s.reserved.size >= 1 and s.masked.size >= 1
            row_sums = s.mask.sum(axis=1)
            assert set(np.unique(row_sums)) <= {0.0, float(cfg.history)}
            masked_seen |= set(s.masked.tolist())
        assert masked_seen == observable  # every observable eventually masked

    def test_unmasked_mode_uses_all_nodes(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(mask_training=False)
        s = draw_sample(graph, series.values, cfg, np.random.default_rng(0))
        assert s.node_indices.size == graph.n
        assert s.masked.size == 0
        assert (s.mask == 1.0).all()

    def test_features_align_with_target(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        s = draw_sample(graph, series.values, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(
            s.features[:, -1], series.values[s.t, s.node_indices]
        )
        np.testing.assert_array_equal(
            s.target[:, 0], series.values[s.t + cfg.horizon, s.node_indices]
        )


def fake_forward(gamma, recovery, h0):
    shape = np.shape(gamma)
    ones = ad.constant(np.ones(shape))
    return ForwardPass(
        gamma=ad.constant(gamma),
        nu=ones,
        alpha=ad.constant(np.full(shape, 2.0)),
        beta=ones,
        recovery=ad.constant(recovery),
        h0=ad.constant(h0),
        h_first=ad.constant(h0),
    )


def fake_sample(target, features, mask):
    n = np.shape(target)[0]
    return SubgraphSample(
        node_indices=np.arange(n),
        reserved=np.arange(n),
        masked=np.empty(0, dtype=np.int64),
        mask=mask,
        adjacency=np.eye(n),
        features=features,
        target=np.asarray(target, dtype=float),
        t=0,
    )


class TestComputeLoss:
    def test_hand_recovery_example(self):
        # recovery [[1],[2]] against an all-zero window: mean squared error 2.5
        sample = fake_sample([[0.0], [0.0]], np.zeros((2, 1)), np.ones((2, 1)))
        fwd = fake_forward(np.zeros((2, 1)), np.array([[1.0], [2.0]]), np.zeros((2, 1)))
        cfg = tiny_cfg(history=1, point_loss="mse", loss_alpha=1.0)
        j_pre, j_rec, j_total = compute_loss(sample, fwd, cfg)
        assert j_rec.item() == pytest.approx(2.5)
        assert j_pre.item() == pytest.approx(0.0)
        assert j_total.item() == pytest.approx(2.5)

    def test_perfect_outputs_hit_floor(self):
        target = np.array([[1.0], [2.0]])
        window = np.array([[0.5], [0.25]])
        sample = fake_sample(target, window, np.ones((2, 1)))
        fwd = fake_forward(target, window, window)
        cfg = tiny_cfg(history=1, point_loss="mse")
        j_pre, j_rec, _ = compute_loss(sample, fwd, cfg)
        assert j_pre.item() == 0.0 and j_rec.item() == 0.0

    def test_alpha_zero_drops_recovery(self):
        sample = fake_sample([[0.0]], np.zeros((1, 1)), np.ones((1, 1)))
        fwd = fake_forward([[0.5]], [[3.0]], np.zeros((1, 1)))
        cfg = tiny_cfg(history=1, point_loss="mse", loss_alpha=0.0)
        j_pre, j_rec, j_total = compute_loss(sample, fwd, cfg)
        assert j_total.item() == pytest.approx(j_pre.item())
        assert j_rec.item() > 0

    def test_total_monotone_in_alpha(self):
        sample = fake_sample([[0.0]], np.zeros((1, 1)), np.ones((1, 1)))
        fwd = fake_forward([[0.5]], [[3.0]], np.zeros((1, 1)))
        totals = []
        for alpha in (0.1, 0.5, 2.0):
            cfg = tiny_cfg(history=1, point_loss="mse", loss_alpha=alpha)
            totals.append(compute_loss(sample, fwd, cfg)[2].item())
        assert totals[0] < totals[1] < totals[2]


class TestTrain:
    def test_one_iter_one_sample_one_step(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(iterations=1, samples_per_iter=1, batch_size=4)
        res = train(graph, series, cfg, np.random.default_rng(0))
        assert res.optimizer_steps == 1
        assert len(res.trace) == 1

    def test_batching_step_count(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(iterations=2, samples_per_iter=5, batch_size=2)
        res = train(graph, series, cfg, np.random.default_rng(0))
        assert res.optimizer_steps == 2 * 3  # ceil(5/2) batches per iteration

    def test_bitwise_reproducible(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(iterations=4)
        r1 = train(graph, series, cfg, np.random.default_rng(42))
        r2 = train(graph, series, cfg, np.random.default_rng(42))
        assert r1.trace == r2.trace
        for k in r1.model.params:
            assert np.array_equal(r1.model.params[k].values, r2.model.params[k].values)

    def test_loss_improves_over_training(self):
        # 20-node synthetic, 5 seeds: smoothed total loss beats the untrained level
        wins = 0
        for seed in range(5):
            gen = np.random.default_rng(seed)
            graph, series = generate_synthetic(20, 600, gen)
            graph = hide_locations(graph, 4, gen)
            cfg = TrainConfig(
                iterations=300, samples_per_iter=4, batch_size=4, history=12, horizon=3,
                lr=5e-3, model=ModelConfig(hidden_dim=16),
            )
            res = train(graph, series, cfg, np.random.default_rng(seed))
            first = np.mean([r["j_total"] for r in res.trace[:10]])
            last = np.mean([r["j_total"] for r in res.trace[-10:]])
            wins += last < first
        assert wins == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(iterations=30, lr=1e154, point_loss="mse")
        with pytest.raises(TrainingDiverged):
            train(graph, series, cfg, np.random.default_rng(0))


class TestScaler:
    def test_round_trip(self, rng):
        values = rng.uniform(10, 70, (50, 4))
        s = Scaler.fit(values, np.arange(4))
        np.testing.assert_allclose(s.inverse(s.transform(values)), values)

    def test_zero_variance_guard(self):
        values = np.full((10, 2), 55.0)
        s = Scaler.fit(values, np.arange(2))
        assert s.std == 1.0
        np.testing.assert_array_equal(s.transform(values), np.zeros_like(values))

    def test_ignores_missing_columns(self, rng):
        values = rng.uniform(10, 70, (50, 4))
        values[:, 3] = 1e6
        s = Scaler.fit(values, np.array([0, 1, 2]))
        assert abs(s.mean - values[:, :3].mean()) < 1e-9


class TestPredictFull:
    def test_no_missing_reduces_to_standard(self, rng):
        graph, series = generate_synthetic(8, 120, rng)
        cfg = tiny_cfg()
        res = train(graph, series, cfg, np.random.default_rng(0))
        fp = predict_full(graph, series.values[-cfg.history :], res.model)
        assert fp.gamma.shape == (8,)
        assert np.isfinite(fp.gamma).all()

    def test_output_covers_all_nodes(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        res = train(graph, series, cfg, np.random.default_rng(0))
        fp = predict_full(graph, series.values[-cfg.history :], res.model)
        assert fp.gamma.shape == (graph.n,)
        assert fp.epistemic.shape == (graph.n,)
        assert (fp.epistemic > 0).all() and (fp.aleatoric > 0).all()

    def test_window_shape_checked(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        res = train(graph, series, cfg, np.random.default_rng(0))
        with pytest.raises(DataError):
            predict_full(graph, series.values[-3:], res.model)

    def test_gap_at_observable_rejected(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        res = train(graph, series, cfg, np.random.default_rng(0))
        window = series.values[-cfg.history :].copy()
        window[0, graph.observable[0]] = np.nan
        with pytest.raises(DataError):
            predict_full(graph, window, res.model)

    def test_missing_columns_ignored(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        res = train(graph, series, cfg, np.random.default_rng(0))
        w1 = series.values[-cfg.history :].copy()
        w2 = w1.copy()
        w2[:, graph.missing] = -999.0
        f1 = predict_full(graph, w1, res.model)
        f2 = predict_full(graph, w2, res.model)
        np.testing.assert_array_equal(f1.gamma, f2.gamma)


class TestModelIO:
    def test_save_load_predictions_identical(self, small_world, tmp_path):
        graph, series = small_world
        cfg = tiny_cfg()
        res = train(graph, series, cfg, np.random.default_rng(0))
        path = tmp_path / "ckpt.bin"
        save_model(path, res.model, extra_meta={"seed": 0})
        loaded, extra = load_model(path)
        assert extra == {"seed": 0}
        window = series.values[-cfg.history :]
        np.testing.assert_array_equal(
            predict_full(graph, window, res.model).gamma,
            predict_full(graph, window, loaded).gamma,
        )
