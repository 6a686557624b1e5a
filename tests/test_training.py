from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gapcast import autodiff as ad
from gapcast import training
from gapcast.autodiff import Tape
from gapcast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from gapcast.data import (
    MAX_FILL_GAP,
    DataError,
    NodeIdMismatch,
    fill_small_gaps,
    generate_synthetic,
    hide_locations,
)
from gapcast.evaluate import collect_predictions
from gapcast.graph import build_adjacency, normalize, subgraph
from gapcast.model import (
    ForwardPass,
    ModelConfig,
    forward,
    init_params,
    nig_nll,
    nig_nll_values,
    weighted_mean,
)
from gapcast.training import (
    SampleBatch,
    Scaler,
    TrainConfig,
    TrainedModel,
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


def windows(graph, values, cfg):
    return valid_time_steps(values, cfg.history, cfg.horizon, graph.observable)


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

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="loss_alpha"):
            TrainConfig(loss_alpha=alpha)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_lr(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)


class TestValidTimeSteps:
    def test_too_short_series(self):
        with pytest.raises(DataError):
            valid_time_steps(np.ones((5, 2)), history=4, horizon=2, columns=np.array([0, 1]))

    def test_gap_windows_excluded(self):
        values = np.ones((20, 2))
        values[10, 0] = np.nan
        ts = valid_time_steps(values, history=3, horizon=1, columns=np.array([0, 1]))
        # the windows with the gap in their target (t=9), last row (t=10) or
        # first row (t=12) are gone; t=11 holds it inside, where it is filled
        for t in (9, 10, 12):
            assert t not in ts
        assert {8, 11, 13} <= set(ts.tolist())
        values[10:10 + MAX_FILL_GAP + 1, 0] = np.nan  # too long to fill
        ts = valid_time_steps(values, history=3, horizon=1, columns=np.array([0, 1]))
        assert not set(range(9, 15)) & set(ts.tolist()) and {8, 15} <= set(ts.tolist())

    def test_keeps_the_ends_inference_accepts(self):
        """One missing reading at step 100 of an observable column drops
        exactly the three windows whose target, last or first row holds it:
        training keeps the ends ``collect_predictions`` scores."""
        graph, series = generate_synthetic(12, 300, np.random.default_rng(0))
        graph = hide_locations(graph, 3, np.random.default_rng(1))
        values = series.values.copy()
        values[100, graph.observable[0]] = np.nan
        cfg = tiny_cfg(history=12, horizon=3)
        ts = valid_time_steps(values, cfg.history, cfg.horizon, graph.observable)
        every = np.arange(cfg.history - 1, 300 - cfg.horizon)
        np.testing.assert_array_equal(ts, np.setdiff1d(every, [97, 100, 111]))
        assert ts.size == 283
        drawn_from = []
        draw = training.draw_sample

        def spy(graph, cfg, rng, valid_steps):
            drawn_from.append(valid_steps)
            return draw(graph, cfg, rng, valid_steps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "draw_sample", spy)
            train(graph, replace(series, values=values), replace(cfg, iterations=1),
                  np.random.default_rng(2))
        np.testing.assert_array_equal(drawn_from[0], ts)

    def test_no_window_left_is_named(self):
        values = np.ones((20, 2))
        values[::2, 1] = np.nan  # every window's first, last or target row
        with pytest.raises(DataError, match="no gap-free windows in the series"):
            valid_time_steps(values, history=3, horizon=1, columns=np.array([0, 1]))


def stack_draws(graph, values, cfg, rng, steps, sizes):
    """Draws in batches of the given ``sizes``, and the one stack of them."""
    batches = [[draw_sample(graph, cfg, rng, steps) for _ in range(size)] for size in sizes]
    return batches, SampleBatch.stack(batches, values, graph.adjacency, cfg)


def reserved_column(samples):
    """The mask a stack of ``samples`` must hold: one row per node, 1.0 on
    the reserved rows of each draw and 0.0 on its masked rows."""
    return np.concatenate([
        np.r_[np.ones(s.reserved.size), np.zeros(s.masked.size)] for s in samples
    ])[:, None]


class TestDrawSample:
    def test_two_observable_forces_one_and_one(self, rng):
        graph, series = generate_synthetic(6, 60, rng)
        graph = graph.with_partition(np.array([1, 4]), np.array([0, 2, 3, 5]))
        cfg = tiny_cfg()
        steps = windows(graph, series.values, cfg)
        s = draw_sample(graph, cfg, np.random.default_rng(0), steps)
        assert s.reserved.size == 1 and s.masked.size == 1

    def test_fixed_seed_reproducible(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        steps = windows(graph, series.values, cfg)
        a = draw_sample(graph, cfg, np.random.default_rng(11), steps)
        b = draw_sample(graph, cfg, np.random.default_rng(11), steps)
        for name in ("node_indices", "reserved", "masked"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.t == b.t

    def test_contracts_over_many_draws(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        gen = np.random.default_rng(7)
        observable = set(graph.observable.tolist())
        masked_seen = set()
        steps = valid_time_steps(series.values, cfg.history, cfg.horizon, graph.observable)
        for _ in range(20):  # 2000 draws in stacks of 100
            (draws,), stacked = stack_draws(graph, series.values, cfg, gen, steps, [100])
            for s in draws:
                nodes = set(s.node_indices.tolist())
                assert nodes <= observable
                assert set(s.reserved.tolist()) | set(s.masked.tolist()) == nodes
                assert not (set(s.reserved.tolist()) & set(s.masked.tolist()))
                assert s.reserved.size >= 1 and s.masked.size >= 1
                np.testing.assert_array_equal(
                    s.node_indices, np.concatenate([s.reserved, s.masked])
                )
                masked_seen |= set(s.masked.tolist())
            np.testing.assert_array_equal(stacked.mask, reserved_column(draws))
        assert masked_seen == observable  # every observable eventually masked

    def test_unmasked_mode_uses_all_nodes(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(mask_training=False)
        steps = windows(graph, series.values, cfg)
        ((s,),), stacked = stack_draws(
            graph, series.values, cfg, np.random.default_rng(0), steps, [1]
        )
        np.testing.assert_array_equal(s.node_indices, graph.observable)
        assert s.masked.size == 0
        assert stacked.mask.shape == (graph.observable.size, 1) and (stacked.mask == 1.0).all()

    def test_features_align_with_target(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        steps = windows(graph, series.values, cfg)
        ((s,),), stacked = stack_draws(
            graph, series.values, cfg, np.random.default_rng(3), steps, [1]
        )
        np.testing.assert_array_equal(
            stacked.features[:, -1], series.values[s.t, s.node_indices]
        )
        np.testing.assert_array_equal(
            stacked.target[:, 0], series.values[s.t + cfg.horizon, s.node_indices]
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
    )


def fake_batch(target, features):
    """A one-sample batch of every node reserved, with plain-mean weights."""
    n = np.shape(target)[0]
    return SampleBatch(
        features=features,
        mask=np.ones((n, 1)),
        target=np.asarray(target, dtype=float),
        operator=sparse.csr_array(np.eye(n)),
        weights=np.full((n, 1), 1.0 / n),
        bounds=(0, n),
    )


class TestComputeLoss:
    def test_hand_recovery_example(self):
        # recovery [[1],[2]] against an all-zero window: mean squared error 2.5
        sample = fake_batch([[0.0], [0.0]], np.zeros((2, 1)))
        fwd = fake_forward(np.zeros((2, 1)), np.array([[1.0], [2.0]]), np.zeros((2, 1)))
        cfg = tiny_cfg(history=1, loss_alpha=1.0)
        j_pre, j_rec, j_total = compute_loss(sample, fwd, cfg)
        assert j_rec.item() == pytest.approx(2.5)
        # zero residual: the NLL at nu=1, alpha=2, beta=1 and no penalty
        assert j_pre.item() == pytest.approx(nig_nll_values(0.0, 1.0, 2.0, 1.0, 0.0))
        assert j_total.item() == pytest.approx(j_pre.item() + 2.5)

    def test_perfect_outputs_hit_floor(self):
        target = np.array([[1.0], [2.0]])
        window = np.array([[0.5], [0.25]])
        sample = fake_batch(target, window)
        fwd = fake_forward(target, window, window)
        cfg = tiny_cfg(history=1)
        j_pre, j_rec, _ = compute_loss(sample, fwd, cfg)
        assert j_rec.item() == 0.0
        # gamma = y is the NLL's minimum over gamma, and the penalty vanishes
        floor = nig_nll_values(target, 1.0, 2.0, 1.0, target).mean()
        assert j_pre.item() == pytest.approx(floor, rel=1e-12)

    def test_alpha_zero_drops_recovery(self):
        sample = fake_batch([[0.0]], np.zeros((1, 1)))
        fwd = fake_forward([[0.5]], [[3.0]], np.zeros((1, 1)))
        cfg = tiny_cfg(history=1, loss_alpha=0.0)
        j_pre, j_rec, j_total = compute_loss(sample, fwd, cfg)
        assert j_total.item() == pytest.approx(j_pre.item())
        assert j_rec.item() > 0

    def test_total_monotone_in_alpha(self):
        sample = fake_batch([[0.0]], np.zeros((1, 1)))
        fwd = fake_forward([[0.5]], [[3.0]], np.zeros((1, 1)))
        totals = []
        for alpha in (0.1, 0.5, 2.0):
            cfg = tiny_cfg(history=1, loss_alpha=alpha)
            totals.append(compute_loss(sample, fwd, cfg)[2].item())
        assert totals[0] < totals[1] < totals[2]


def per_sample_mean_loss(params, samples, values, cfg, adjacency):
    """The batch loss as the mean over samples of plain per-node means,
    one forward pass per sample on its window read from ``values`` and a
    full (nodes, history) mask: the oracle for the disjoint-union batch."""
    total = None
    for s in samples:
        features = values[s.t - cfg.history + 1 : s.t + 1, s.node_indices].T
        mask = np.zeros(features.shape)
        mask[: s.reserved.size] = 1.0
        fwd = forward(
            params, cfg.model, ad.constant(features), ad.constant(mask),
            normalize(subgraph(adjacency, [s.node_indices])),
        )
        n = s.node_indices.size
        plain = ad.constant(np.full((n, 1), 1.0 / n))
        target = values[s.t + cfg.horizon, s.node_indices][:, None]
        j_pre = nig_nll(
            fwd.gamma, fwd.nu, fwd.alpha, fwd.beta, ad.constant(target),
            evidence_reg=cfg.model.evidence_reg, weights=plain,
        )
        j_rec = weighted_mean(ad.square(ad.sub(fwd.recovery, fwd.h0)), plain)
        j = ad.add(j_pre, ad.scale(j_rec, cfg.loss_alpha))
        total = j if total is None else ad.add(total, j)
    return ad.scale(total, 1.0 / len(samples))


def union_loss(params, samples, values, cfg, adjacency):
    batch = SampleBatch.stack([samples], values, adjacency, cfg)
    fwd = forward(
        params, cfg.model, ad.constant(batch.features), ad.constant(batch.mask),
        batch.operator,
    )
    return compute_loss(batch, fwd, cfg)[2]


def loss_and_grads(loss_fn, params, samples, values, cfg, adjacency):
    with Tape() as tape:
        loss = loss_fn(params, samples, values, cfg, adjacency)
    grads = tape.backward(loss)
    return loss.item(), {k: grads[p] for k, p in params.items()}, len(tape.nodes)


class TestSampleBatch:
    def test_union_matches_per_sample_means(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(loss_alpha=0.7)
        values = Scaler.fit(series.values, graph.observable).transform(series.values)
        params = init_params(cfg.model, cfg.history, np.random.default_rng(3))
        rng = np.random.default_rng(7)
        steps = windows(graph, values, cfg)
        for _ in range(4):
            samples = [draw_sample(graph, cfg, rng, steps) for _ in range(4)]
            assert len({s.node_indices.size for s in samples}) > 1  # unequal sizes
            want, want_grads, _ = loss_and_grads(
                per_sample_mean_loss, params, samples, values, cfg, graph.adjacency
            )
            got, got_grads, _ = loss_and_grads(
                union_loss, params, samples, values, cfg, graph.adjacency
            )
            assert abs(got - want) <= 1e-12 * abs(want)
            for name, ref in want_grads.items():
                err = np.max(np.abs(got_grads[name] - ref))
                assert err <= 1e-12 * np.max(np.abs(ref)), name

    def test_tape_size_independent_of_batch_size(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        params = init_params(cfg.model, cfg.history, np.random.default_rng(3))
        rng = np.random.default_rng(5)
        steps = windows(graph, series.values, cfg)
        samples = [draw_sample(graph, cfg, rng, steps) for _ in range(4)]
        a, v = graph.adjacency, series.values
        ops_one = loss_and_grads(union_loss, params, samples[:1], v, cfg, a)[2]
        ops_four = loss_and_grads(union_loss, params, samples, v, cfg, a)[2]
        assert ops_one == ops_four
        assert ops_four < loss_and_grads(per_sample_mean_loss, params, samples, v, cfg, a)[2] / 3

    def test_stacked_rows_follow_sample_order(self, small_world):
        graph, series = small_world
        rng = np.random.default_rng(9)
        cfg = tiny_cfg()
        steps = windows(graph, series.values, cfg)
        (samples,), batch = stack_draws(graph, series.values, cfg, rng, steps, [3])
        sizes = [s.node_indices.size for s in samples]
        np.testing.assert_array_equal(
            batch.target[:, 0],
            np.concatenate([series.values[s.t + cfg.horizon, s.node_indices] for s in samples]),
        )
        for s, block in zip(samples, np.split(batch.weights[:, 0], np.cumsum(sizes)[:-1])):
            np.testing.assert_allclose(block, 1.0 / (3 * s.node_indices.size))
        assert batch.weights.sum() == pytest.approx(1.0)
        assert batch.bounds == (0, sum(sizes))
        (alone,) = batch.batches()
        for name in ("features", "mask", "target", "weights"):
            np.testing.assert_array_equal(getattr(alone, name), getattr(batch, name))
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(
                getattr(alone.operator, name), getattr(batch.operator, name)
            )

    def test_each_batch_of_a_stack_is_that_batch_stacked_alone(self, small_world):
        graph, series = small_world
        rng = np.random.default_rng(11)
        cfg = tiny_cfg()
        steps = windows(graph, series.values, cfg)
        groups, chunk = stack_draws(graph, series.values, cfg, rng, steps, [2, 3, 1, 2])
        assert chunk.bounds[-1] == chunk.features.shape[0] == chunk.operator.shape[0]
        for members, batch in zip(groups, chunk.batches(), strict=True):
            alone = SampleBatch.stack([members], series.values, graph.adjacency, cfg)
            for name in ("features", "mask", "target", "weights"):
                got = getattr(batch, name)
                assert np.shares_memory(got, getattr(chunk, name))  # a view, no copy
                np.testing.assert_array_equal(got, getattr(alone, name))
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(
                    getattr(batch.operator, name), getattr(alone.operator, name)
                )
            assert batch.bounds == alone.bounds


    def test_rows_read_the_series_at_each_draws_step_and_node(self, small_world):
        """One stack of batches of unequal sizes, drawn at different steps:
        every row holds the window ending at its draw's step and the value
        ``horizon`` steps later, read directly from the series at its node,
        and the mask is a column that is 1.0 exactly on reserved rows."""
        graph, series = small_world
        cfg = tiny_cfg()
        steps = windows(graph, series.values, cfg)
        groups, chunk = stack_draws(
            graph, series.values, cfg, np.random.default_rng(13), steps, [3, 1, 4, 2]
        )
        draws = [s for members in groups for s in members]
        assert len({s.t for s in draws}) > 1 and len({s.node_indices.size for s in draws}) > 1
        row = 0
        for s in draws:
            for node in s.node_indices:
                np.testing.assert_array_equal(
                    chunk.features[row], series.values[s.t - cfg.history + 1 : s.t + 1, node]
                )
                assert chunk.target[row, 0] == series.values[s.t + cfg.horizon, node]
                row += 1
        assert chunk.features.shape == (row, cfg.history) and chunk.target.shape == (row, 1)
        assert chunk.mask.shape == (row, 1)
        np.testing.assert_array_equal(chunk.mask, reserved_column(draws))


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
    def test_permuted_series_columns_rejected(self, small_world):
        graph, series = small_world
        flipped = replace(series, node_ids=series.node_ids[::-1], values=series.values[:, ::-1])
        with pytest.raises(NodeIdMismatch, match="node index 0"):
            train(graph, flipped, tiny_cfg(), np.random.default_rng(0))

    def test_unmasked_training_never_reads_hidden_columns(self, small_world, monkeypatch):
        graph, series = small_world
        values = series.values.copy()
        values[:, graph.missing] = np.nan
        drawn = []
        draw = training.draw_sample

        def spy(*args):
            sample = draw(*args)
            drawn.append(sample.node_indices)
            return sample

        monkeypatch.setattr(training, "draw_sample", spy)
        res = train(graph, replace(series, values=values), tiny_cfg(mask_training=False),
                    np.random.default_rng(0))
        assert all(np.isfinite(row["j_total"]) for row in res.trace)
        assert drawn and not np.isin(np.concatenate(drawn), graph.missing).any()

    def test_divergence_aborts_with_diagnostic(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg(iterations=30, lr=1e154)
        # the huge step overflows on purpose before the loss turns non-finite
        with pytest.warns(RuntimeWarning), pytest.raises(TrainingDiverged):
            train(graph, series, cfg, np.random.default_rng(0))


def one_batch_per_chunk(monkeypatch):
    """Shrink the chunk row budget so that every chunk holds one batch."""
    monkeypatch.setattr(training, "INFERENCE_ROWS", 1)


def spy_gathers(monkeypatch):
    """The node lists of every ``subgraph`` call ``train`` makes, in order."""
    calls = []
    gather = training.subgraph

    def spy(adjacency, node_lists):
        calls.append(node_lists)
        return gather(adjacency, node_lists)

    monkeypatch.setattr(training, "subgraph", spy)
    return calls


class TestChunkedPreparation:
    """``train`` stacks and normalises its batches a chunk at a time; the
    chunking changes no draw, loss, gradient or parameter."""

    @pytest.mark.parametrize(
        "changes",
        [{}, {"samples_per_iter": 5, "batch_size": 2}, {"mask_training": False}],
        ids=["default", "short-last-batch", "no-masking"],
    )
    def test_one_batch_per_chunk_is_bitwise_the_default(self, small_world, monkeypatch, changes):
        graph, series = small_world
        cfg = tiny_cfg(iterations=4, **changes)
        gathers = spy_gathers(monkeypatch)
        chunked = train(graph, series, cfg, np.random.default_rng(8))
        assert len(gathers) == 1  # every batch of the run fits one chunk
        one_batch_per_chunk(monkeypatch)
        single = train(graph, series, cfg, np.random.default_rng(8))
        assert len(gathers) == 1 + chunked.optimizer_steps
        assert chunked.trace == single.trace
        assert chunked.optimizer_steps == single.optimizer_steps
        for name, param in chunked.model.params.items():
            np.testing.assert_array_equal(param.values, single.model.params[name].values)

    @pytest.mark.parametrize("budget", [1, 20, 45])
    def test_chunks_are_whole_batches_within_the_row_budget(self, small_world, monkeypatch, budget):
        graph, series = small_world
        cfg = tiny_cfg(iterations=6, samples_per_iter=6, batch_size=3)
        monkeypatch.setattr(training, "INFERENCE_ROWS", budget)
        chunks = spy_gathers(monkeypatch)
        train(graph, series, cfg, np.random.default_rng(4))
        batches = [[len(nodes) for nodes in chunk] for chunk in chunks]
        assert sum(map(len, batches)) == cfg.iterations * cfg.samples_per_iter
        for sizes, after in zip(batches, [*batches[1:], None]):
            assert len(sizes) % cfg.batch_size == 0  # whole batches only
            first = sum(sizes[: cfg.batch_size])
            assert sum(sizes) <= max(budget, first)
            if after is not None:  # the next batch would not have fit
                assert sum(sizes) + sum(after[: cfg.batch_size]) > budget

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_same_iteration(self, small_world, monkeypatch):
        graph, series = small_world
        cfg = tiny_cfg(iterations=30, samples_per_iter=2, lr=1e154)  # one batch an iteration
        with pytest.raises(TrainingDiverged) as chunked:
            train(graph, series, cfg, np.random.default_rng(0))
        one_batch_per_chunk(monkeypatch)
        with pytest.raises(TrainingDiverged) as single:
            train(graph, series, cfg, np.random.default_rng(0))
        assert chunked.value.iteration == single.value.iteration > 0
        assert str(chunked.value) == str(single.value)


def per_window_forward(graph, window, model):
    """Oracle: one window's forward pass on the graph alone, rescaled to
    speed units; rows gamma, nu, alpha, beta."""
    x = np.zeros((graph.n, model.history))
    x[graph.observable] = model.scaler.transform(window[:, graph.observable]).T
    mask = np.zeros((graph.n, model.history))
    mask[graph.observable] = 1.0
    fwd = forward(
        model.params, model.model_cfg, ad.constant(x), ad.constant(mask),
        normalize(graph.adjacency),
    )
    mean, std = model.scaler.mean, model.scaler.std
    return np.stack([
        fwd.gamma.values[:, 0] * std + mean,
        fwd.nu.values[:, 0],
        fwd.alpha.values[:, 0],
        fwd.beta.values[:, 0] * std * std,
    ])


def nig_rows(ev):
    """(4, ...) stack of an EvidentialOutput's gamma, nu, alpha, beta."""
    return np.stack([ev.gamma, ev.nu, ev.alpha_nig, ev.beta])


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
        ev = predict_full(graph, series.values[-cfg.history :], res.model).evidential
        assert ev.gamma.shape == (8,)
        assert np.isfinite(ev.gamma).all()

    def test_output_covers_all_nodes(self, small_world):
        graph, series = small_world
        cfg = tiny_cfg()
        res = train(graph, series, cfg, np.random.default_rng(0))
        ev = predict_full(graph, series.values[-cfg.history :], res.model).evidential
        assert ev.gamma.shape == (graph.n,)
        assert ev.epistemic.shape == (graph.n,)
        assert (ev.epistemic > 0).all() and (ev.aleatoric > 0).all()

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
        np.testing.assert_array_equal(f1.evidential.gamma, f2.evidential.gamma)


class TestPredictWindows:
    """The stacked inference engine through its two entries:
    ``collect_predictions`` for a series and ``predict_full`` for one
    window."""

    @pytest.fixture
    def world(self, small_world):
        graph, series = small_world
        model = train(graph, series, tiny_cfg(), np.random.default_rng(0)).model
        return graph, model, series

    @staticmethod
    def window(values, end, model):
        return values[end - model.history + 1 : end + 1]

    @staticmethod
    def directed(graph):
        """A graph on the same nodes whose forward and backward transitions
        differ."""
        dist = np.random.default_rng(3).uniform(0.2, 3.0, (graph.n, graph.n))
        directed = build_adjacency(dist, sigma=1.0, kappa=2.0).with_partition(
            graph.observable, graph.missing
        )
        p = normalize(directed.adjacency)
        assert abs(p - p.T).max() > 0.1
        return directed

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_per_window_forward(self, world, directed):
        graph, model, series = world
        if directed:
            graph = self.directed(graph)
        wp = collect_predictions(model, graph, series, series)
        ends = wp.target_steps - model.horizon
        assert ends.size > training.INFERENCE_ROWS // graph.n  # a full and a short pass
        assert wp.gamma.shape == wp.beta.shape == (ends.size, graph.n)
        for row, end in enumerate(ends):
            np.testing.assert_allclose(
                nig_rows(wp.evidential)[:, row],
                per_window_forward(graph, self.window(series.values, end, model), model),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("count", [1, 3])
    def test_directed_union_equals_per_window_rows_bitwise(self, world, count):
        # One stored union serves both directions: its transpose view is the
        # backward union, with no separate path for a single window.
        graph, model, series = world
        graph = self.directed(graph)
        steps = model.history + model.horizon + count - 1
        head = replace(series, timestamps=series.timestamps[:steps], values=series.values[:steps])
        wp = collect_predictions(model, graph, head, head)
        ends = wp.target_steps - model.horizon
        assert ends.size == count
        for row, end in enumerate(ends):
            np.testing.assert_array_equal(
                nig_rows(wp.evidential)[:, row],
                per_window_forward(graph, self.window(series.values, end, model), model),
            )

    def test_speed_units(self, world):
        # A scaler (m, s) on speed windows gives m + s * (the unit-scaler
        # prediction on standardized windows), and variances times s^2.
        graph, model, series = world
        m, s = model.scaler.mean, model.scaler.std
        unit = replace(model, scaler=Scaler(mean=0.0, std=1.0))
        standard = replace(series, values=(series.values - m) / s)
        speed = collect_predictions(model, graph, series, series)
        plain = collect_predictions(unit, graph, standard, standard)
        np.testing.assert_array_equal(speed.target_steps, plain.target_steps)
        speed, plain = speed.evidential, plain.evidential
        np.testing.assert_allclose(speed.gamma, plain.gamma * s + m, rtol=1e-12)
        np.testing.assert_allclose(speed.nu, plain.nu, rtol=1e-12)
        np.testing.assert_allclose(speed.epistemic, plain.epistemic * s * s, rtol=1e-12)
        np.testing.assert_allclose(speed.aleatoric, plain.aleatoric * s * s, rtol=1e-12)

    @pytest.mark.parametrize(
        "take",
        [
            lambda w: w[:, 0],
            lambda w: w[:, 1:],
            lambda w: w[1:],
            lambda w: np.vstack([w, w[:1]]),
            lambda w: w[:0],
            lambda w: w.T,
            lambda w: w[None],
        ],
    )
    def test_stack_shape_checked(self, world, take):
        graph, model, series = world
        window = self.window(series.values, model.history + 49, model)
        with pytest.raises(DataError, match="window must be"):
            predict_full(graph, take(window), model)

    def test_gap_in_any_window_rejected(self, world):
        graph, model, series = world
        end = model.history + 49
        values = series.values.copy()
        values[end - 3, graph.missing] = np.nan  # ignored column
        clean = predict_full(graph, self.window(series.values, end, model), model).evidential
        one = predict_full(graph, self.window(values, end, model), model).evidential
        np.testing.assert_array_equal(nig_rows(one), nig_rows(clean))
        gappy = replace(series, values=values)
        every = collect_predictions(model, graph, series, series).target_steps
        np.testing.assert_array_equal(
            collect_predictions(model, graph, gappy, series).target_steps, every
        )
        # longer than fill_small_gaps fills, and inside the window
        values[end - 4 : end - 4 + MAX_FILL_GAP + 1, graph.observable[-1]] = np.nan
        with pytest.raises(DataError, match="gaps at observable"):
            predict_full(graph, self.window(values, end, model), model)

    def test_predict_full_fills_interior_gaps_only(self, world):
        graph, model, series = world
        window = self.window(series.values, model.history + 49, model).copy()
        window[1, graph.observable[0]] = np.nan
        filled = predict_full(graph, fill_small_gaps(window), model).evidential
        one = predict_full(graph, window, model).evidential
        np.testing.assert_array_equal(nig_rows(one), nig_rows(filled))
        window[0, graph.observable[0]] = np.nan  # now a gap at the window's edge
        with pytest.raises(DataError, match="gaps at observable"):
            predict_full(graph, window, model)


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
            predict_full(graph, window, res.model).evidential.gamma,
            predict_full(graph, window, loaded).evidential.gamma,
        )

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("model_cfg", None), ("model_cfg", {"width": 3}),
            ("history", None), ("history", "six"),
            ("horizon", None), ("horizon", [2]),
            ("scaler", None), ("scaler", {"mean": 0.0}),
            ("model_cfg", {"hidden_dim": 4, "layers": 3.0}),
            ("model_cfg", {"hidden_dim": True}),
            ("history", True), ("history", 6.0),
            ("horizon", 0), ("horizon", -2), ("horizon", 2.0),
            ("scaler", {"mean": 50.0, "std": 0.0}), ("scaler", {"mean": 50.0, "std": -5.0}),
            ("scaler", {"mean": 50.0, "std": "abc"}), ("scaler", {"mean": 50.0, "std": True}),
            ("scaler", {"mean": float("nan"), "std": 5.0}),
            ("scaler", {"mean": 50.0, "std": float("inf")}),
        ],
    )
    def test_missing_or_malformed_meta_names_its_key(self, tmp_path, key, bad):
        params, meta = self.saved(tmp_path)
        if bad is None:
            del meta[key]
        else:
            meta[key] = bad
        save_checkpoint(tmp_path / "bad.bin", params, meta)
        with pytest.raises(CheckpointError, match=f"'{key}'"):
            load_model(tmp_path / "bad.bin")

    @staticmethod
    def saved(tmp_path):
        """The parameters and meta of a saved model: hidden width 4, 3 layers,
        Chebyshev order 2, history 6."""
        model = TrainedModel(
            params=init_params(ModelConfig(hidden_dim=4), 6, np.random.default_rng(0)),
            model_cfg=ModelConfig(hidden_dim=4), history=6, horizon=2, scaler=Scaler(50.0, 5.0),
        )
        save_model(tmp_path / "good.bin", model)
        return load_checkpoint(tmp_path / "good.bin")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m, p: m["model_cfg"].update(layers=2), "'theta_b_l3_k1' is not one"),
            (lambda m, p: m["model_cfg"].update(cheb_order=1), "'theta_b_l1_k2' is not one"),
            (lambda m, p: m["model_cfg"].update(hidden_dim=5), r"'head_w' has shape \(4, 4\)"),
            (lambda m, p: m.update(history=5), r"'rec_b' has shape \(1, 6\)"),
            (lambda m, p: p.update(head_bias=p.pop("head_b")), "no parameter 'head_b'"),
            (lambda m, p: p.pop("rec_w"), "no parameter 'rec_w'"),
            (lambda m, p: p.update(extra=p["head_b"]), "'extra' is not one"),
        ],
        ids=["fewer-layers", "lower-order", "wider", "shorter-history", "renamed", "dropped",
             "extra"],
    )
    def test_parameters_must_be_the_stored_layout(self, tmp_path, edit, message):
        params, meta = self.saved(tmp_path)
        edit(meta, params)
        save_checkpoint(tmp_path / "bad.bin", params, meta)
        with pytest.raises(CheckpointError, match=message):
            load_model(tmp_path / "bad.bin")

    def test_trained_checkpoint_loads_bitwise(self, small_world, tmp_path):
        graph, series = small_world
        cfg = tiny_cfg(model=ModelConfig(hidden_dim=8, layers=2, cheb_order=3))
        res = train(graph, series, cfg, np.random.default_rng(0))
        save_model(tmp_path / "ckpt.bin", res.model)
        loaded, _ = load_model(tmp_path / "ckpt.bin")
        assert loaded.model_cfg == res.model.model_cfg and loaded.scaler == res.model.scaler
        assert (loaded.history, loaded.horizon) == (cfg.history, cfg.horizon)
        assert loaded.params.keys() == res.model.params.keys()
        for name, p in res.model.params.items():
            assert loaded.params[name].values.tobytes() == p.values.tobytes()

    def test_meta_that_is_not_an_object_rejected(self, tmp_path):
        params = init_params(ModelConfig(hidden_dim=4), 6, np.random.default_rng(0))
        save_checkpoint(tmp_path / "list.bin", params, ["model_cfg"])
        with pytest.raises(CheckpointError, match="no 'model_cfg'"):
            load_model(tmp_path / "list.bin")
