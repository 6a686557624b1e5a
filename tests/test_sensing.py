import math

import numpy as np
import pytest

from gapcast import evaluate, sensing, training
from gapcast.data import DataError, SplitSpec, generate_synthetic
from gapcast.model import ModelConfig
from gapcast.sensing import POLICIES, SensingConfig, run_episode, run_episodes, selection
from gapcast.training import TrainConfig


class TestSelection:
    def test_all_equal_takes_lowest_indices(self):
        chosen = selection(np.ones(8), excluded=[2], budget=3)
        np.testing.assert_array_equal(chosen, [0, 1, 3])

    def test_budget_one_is_argmax(self):
        u = np.array([0.1, 5.0, 3.0, 4.9])
        np.testing.assert_array_equal(selection(u, excluded=[], budget=1), [1])

    def test_excluded_never_selected(self):
        u = np.array([9.0, 8.0, 7.0, 1.0])
        chosen = selection(u, excluded=[0, 1], budget=2)
        np.testing.assert_array_equal(chosen, [2, 3])

    def test_matches_sort_then_take_oracle(self, rng):
        repeated = 0
        for _ in range(50):
            u = rng.choice([0.5, 1.0, 2.0, 3.0], size=20)  # force ties
            excluded = rng.choice(20, size=6)  # unsorted, with repeats
            repeated += np.unique(excluded).size < excluded.size
            budget = int(rng.integers(1, 10))
            got = selection(u, excluded, budget)
            candidates = [i for i in range(20) if i not in set(excluded.tolist())]
            oracle = sorted(candidates, key=lambda i: (-u[i], i))[:budget]
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, oracle)
        assert repeated > 0

    def test_selected_dominate_unselected(self, rng):
        u = rng.uniform(0, 10, 30)
        chosen = selection(u, excluded=[], budget=6)
        rest = np.setdiff1d(np.arange(30), chosen)
        assert u[chosen].min() >= u[rest].max() - 1e-12

    def test_budget_exceeds_candidates(self):
        with pytest.raises(DataError):
            selection(np.ones(4), excluded=[0, 1], budget=3)

    @pytest.mark.parametrize("excluded", [[7, -1], [1, 4], [-1], [1.5], [2, np.nan]])
    def test_excluded_must_be_node_indices(self, excluded):
        with pytest.raises(DataError, match=r"node indices in \[0, 4\)"):
            selection(np.array([1.0, 2, 3, 4]), excluded=excluded, budget=2)

    def test_integral_float_ids_accepted(self):
        np.testing.assert_array_equal(selection(np.arange(4.0), [3.0], 1), [2])

    def test_negative_budget_rejected(self):
        # a negative slice bound would deploy all candidates but one
        with pytest.raises(DataError, match="budget"):
            selection(np.arange(12.0), excluded=[0, 1, 2, 3], budget=-1)


def tiny_sensing_cfg(**kw):
    defaults = dict(
        initial_count=4,
        budget_per_step=2,
        steps=2,
        train=TrainConfig(
            iterations=3, samples_per_iter=4, batch_size=4, history=6, horizon=2,
            lr=1e-3, model=ModelConfig(hidden_dim=8),
        ),
        eval_stride=4,
    )
    defaults.update(kw)
    return SensingConfig(**defaults)


@pytest.mark.parametrize("stride", [0, -2])
def test_eval_stride_below_one_rejected(stride):
    with pytest.raises(ValueError, match="eval_stride"):
        tiny_sensing_cfg(eval_stride=stride)


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_rejected(budget):
    with pytest.raises(ValueError, match="budget_per_step"):
        tiny_sensing_cfg(budget_per_step=budget)


def test_negative_steps_rejected():
    with pytest.raises(ValueError, match="steps"):
        tiny_sensing_cfg(steps=-1)


def test_zero_steps_gives_one_record(world):
    graph, series = world
    ep = run_episode(graph, series, tiny_sensing_cfg(steps=0), "random", np.random.default_rng(0))
    assert [rec.step for rec in ep.records] == [0]


@pytest.fixture(scope="module")
def world():
    return generate_synthetic(10, 300, np.random.default_rng(0))


class TestRunEpisode:
    def test_record_count_and_monotone_coverage(self, world):
        graph, series = world
        ep = run_episode(graph, series, tiny_sensing_cfg(), "random", np.random.default_rng(0))
        assert len(ep.records) == 3
        counts = [r.n_observable for r in ep.records]
        assert counts == [4, 6, 8]

    def test_reproducible_for_fixed_seed(self, world):
        graph, series = world
        a = run_episode(graph, series, tiny_sensing_cfg(), "random", np.random.default_rng(9))
        b = run_episode(graph, series, tiny_sensing_cfg(), "random", np.random.default_rng(9))
        for ra, rb in zip(a.records, b.records):
            assert ra.added == rb.added
            assert ra.rmse_missing == rb.rmse_missing

    def test_policies_share_initial_record(self, world):
        """Episodes of one seed start alike, and run_episodes over both
        policies gives, record by record, each policy's run_episode."""
        graph, series = world
        u = run_episode(graph, series, tiny_sensing_cfg(), "uncertainty", np.random.default_rng(3))
        r = run_episode(graph, series, tiny_sensing_cfg(), "random", np.random.default_rng(3))
        assert u.records[0].n_observable == r.records[0].n_observable
        assert u.records[0].rmse_missing == r.records[0].rmse_missing
        cfg, rng = tiny_sensing_cfg(), np.random.default_rng(3)
        together = run_episodes(graph, series, cfg, POLICIES, rng)
        assert [ep.policy for ep in together] == list(POLICIES)
        for ep, alone in zip(together, (u, r)):
            assert len(ep.records) == len(alone.records) == 3
            for a, b in zip(ep.records, alone.records):
                assert a.added == b.added and a.n_observable == b.n_observable
                assert a.rmse_observable == b.rmse_observable
                assert a.rmse_missing == b.rmse_missing

    def test_step_zero_trained_once(self, world, monkeypatch):
        trained = []

        def counted(*args):
            trained.append(args)
            return training.train(*args)

        monkeypatch.setattr(sensing, "train", counted)
        graph, series = world
        run_episodes(graph, series, tiny_sensing_cfg(steps=2), POLICIES, np.random.default_rng(5))
        assert len(trained) == 1 + 2 * 2

    @pytest.mark.parametrize(
        "policies, named",
        [((), "at least one"), (("greedy",), "'greedy'"), (("random", "random"), "'random'"),
         (("uncertainty", "random", "uncertainty"), "'uncertainty'")],
    )
    def test_policies_refused(self, world, policies, named):
        graph, series = world
        with pytest.raises(DataError, match=named):
            run_episodes(graph, series, tiny_sensing_cfg(), policies, np.random.default_rng(0))

    def test_full_coverage_in_one_step(self, world):
        graph, series = world
        cfg = tiny_sensing_cfg(initial_count=4, budget_per_step=6, steps=1)
        ep = run_episode(graph, series, cfg, "random", np.random.default_rng(1))
        assert ep.records[-1].n_observable == graph.n
        assert math.isnan(ep.records[-1].rmse_missing)

    def test_budget_truncated_and_flagged(self, world):
        graph, series = world
        cfg = tiny_sensing_cfg(initial_count=7, budget_per_step=5, steps=2)
        ep = run_episode(graph, series, cfg, "random", np.random.default_rng(1))
        assert ep.records[-1].n_observable == graph.n
        assert len(ep.records[-1].added) == 3 < cfg.budget_per_step

    def test_steps_read_the_report(self, world, monkeypatch):
        reports, scored = [], []

        def report(*args):
            reports.append(evaluate.make_report(*args))
            return reports[-1]

        def select(u, excluded, budget):
            scored.append(u)
            return selection(u, excluded, budget)

        monkeypatch.setattr(sensing, "make_report", report)
        monkeypatch.setattr(sensing, "selection", select)
        graph, series = world
        ep = run_episode(graph, series, tiny_sensing_cfg(), "uncertainty", np.random.default_rng(4))
        assert len(reports) == len(ep.records) == len(scored) + 1
        for rec, rep in zip(ep.records, reports):
            assert rec.rmse_observable == rep.groups["observable"]["rmse"]
            assert rec.rmse_missing == rep.groups["missing"]["rmse"]
        for u, rep in zip(scored, reports):
            np.testing.assert_array_equal(u, [row["epistemic"] for row in rep.per_node])

    def test_unknown_policy_rejected(self, world):
        graph, series = world
        with pytest.raises(DataError):
            run_episode(graph, series, tiny_sensing_cfg(), "greedy", np.random.default_rng(0))

    def test_episode_csv(self, world, tmp_path):
        graph, series = world
        ep = run_episode(graph, series, tiny_sensing_cfg(), "uncertainty", np.random.default_rng(2))
        path = tmp_path / "ep.csv"
        ep.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,policy,n_observable,node_ids_added,rmse_obs,rmse_missing"
        assert len(lines) == len(ep.records) + 1
        assert all(",uncertainty," in line for line in lines[1:])
