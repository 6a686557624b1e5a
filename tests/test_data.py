import numpy as np
import pytest

from gapcast import cli
from gapcast.data import (
    DataError,
    NodeIdMismatch,
    SeriesFormatError,
    SpeedSeries,
    SplitSpec,
    check_node_ids,
    fill_small_gaps,
    generate_synthetic,
    hide_locations,
    load_distances_csv,
    load_speed_csv,
    save_distances_csv,
    save_speed_csv,
    split,
)


def write(path, text):
    path.write_text(text)
    return path


class TestSpeedCsv:
    def test_parse_3x2(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a,b\n0,1.5,2\n300,3,4\n600,5,6\n")
        s = load_speed_csv(p)
        assert s.steps == 3 and s.n == 2
        assert s.resolution == 300.0
        np.testing.assert_array_equal(s.values, [[1.5, 2], [3, 4], [5, 6]])

    def test_duplicate_timestamp_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a\n0,1\n0,2\n")
        with pytest.raises(SeriesFormatError, match="row 3"):
            load_speed_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a,b\n0,1,2\n300,3\n")
        with pytest.raises(SeriesFormatError, match="row 3"):
            load_speed_csv(p)

    def test_unparsable_value(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a\n0,x\n")
        with pytest.raises(SeriesFormatError, match="row 2"):
            load_speed_csv(p)

    def test_nonuniform_spacing_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a\n0,1\n300,2\n900,3\n")
        with pytest.raises(SeriesFormatError):
            load_speed_csv(p)

    def test_gap_cells_become_nan_not_zero(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a,b\n0,,2\n300,3,\n")
        s = load_speed_csv(p)
        assert np.isnan(s.values[0, 0]) and np.isnan(s.values[1, 1])
        assert s.values[0, 1] == 2.0

    def test_round_trip_identity(self, tmp_path, rng):
        values = rng.uniform(0, 80, (20, 3))
        values[4, 1] = np.nan
        s = SpeedSeries(("a", "b", "c"), np.arange(20.0) * 300, values)
        path = tmp_path / "out.csv"
        save_speed_csv(s, path)
        back = load_speed_csv(path)
        assert back.node_ids == s.node_ids
        np.testing.assert_array_equal(back.timestamps, s.timestamps)
        np.testing.assert_array_equal(back.values[~np.isnan(s.values)], s.values[~np.isnan(s.values)])
        assert np.isnan(back.values[4, 1])


class TestDistanceCsv:
    def test_directed_semantics(self, tmp_path):
        p = write(tmp_path / "d.csv", "from,to,distance\na,b,100\n")
        d = load_distances_csv(p, ("a", "b"))
        assert d[0, 1] == 100.0
        assert d[1, 0] == np.inf

    def test_self_pair_defaults_to_zero(self, tmp_path):
        p = write(tmp_path / "d.csv", "from,to,distance\na,b,1\n")
        d = load_distances_csv(p, ("a", "b"))
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0

    def test_five_row_fixture(self, tmp_path):
        rows = "from,to,distance\ns0,s1,1.2\ns1,s0,1.3\ns1,s2,2.0\ns2,s3,0.7\ns3,s4,4.4\n"
        p = write(tmp_path / "d.csv", rows)
        d = load_distances_csv(p, ("s0", "s1", "s2", "s3", "s4"))
        assert np.isfinite(d[~np.eye(5, dtype=bool)]).sum() == 5
        assert d[1, 0] == 1.3 and d[3, 4] == 4.4

    def test_negative_distance_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "from,to,distance\na,b,-1\n")
        with pytest.raises(SeriesFormatError):
            load_distances_csv(p, ("a", "b"))

    def test_unknown_id_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "from,to,distance\na,z,1\n")
        with pytest.raises(SeriesFormatError):
            load_distances_csv(p, ("a", "b"))

    def test_duplicate_pair_rejected(self, tmp_path):
        cases = [
            ("a,b,1\na,b,2\n", 3),
            ("a,b,1\nb,a,1\nb,b,0\na,b,1\n", 5),  # same pair, same value
            ("a,a,0\nb,a,2\na,a,0\n", 4),  # a repeated self pair
            ("a,b,inf\nb,a,1\na,b,inf\n", 4),  # a repeated infinite pair
        ]
        for rows, row in cases:
            p = write(tmp_path / "d.csv", "from,to,distance\n" + rows)
            with pytest.raises(SeriesFormatError, match="duplicate pair") as err:
                load_distances_csv(p, ("a", "b"))
            assert err.value.row == row

    def test_round_trip(self, tmp_path, rng):
        d = np.full((4, 4), np.inf)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = 1.5
        d[2, 3] = 0.25
        ids = ("a", "b", "c", "d")
        path = tmp_path / "d.csv"
        save_distances_csv(d, ids, path)
        np.testing.assert_array_equal(load_distances_csv(path, ids), d)

    def test_rows_in_row_major_order(self, tmp_path):
        d = np.array([[0.0, 2.0, np.inf], [0.5, 7.0, 1.25], [np.inf, 3.0, 0.0]])
        path = tmp_path / "d.csv"
        save_distances_csv(d, ("a", "b", "c"), path)
        assert path.read_text() == "from,to,distance\na,b,2\nb,a,0.5\nb,c,1.25\nc,b,3\n"


def make_series(steps, n=2):
    return SpeedSeries(
        tuple(f"s{i}" for i in range(n)),
        np.arange(float(steps)) * 300,
        np.arange(float(steps * n)).reshape(steps, n),
    )


class TestCheckNodeIds:
    @pytest.mark.parametrize(
        "found, pos",
        [(("a", "c", "b"), 1), (("a", "b"), 2), (("a", "b", "c", "d"), 3), (("c", "b", "a"), 0)],
    )
    def test_names_first_differing_index(self, found, pos):
        with pytest.raises(NodeIdMismatch, match=f"node index {pos},.* the graph"):
            check_node_ids(("a", "b", "c"), found, "the graph")

    def test_is_a_data_error_importable_from_cli(self):
        assert issubclass(NodeIdMismatch, DataError)
        assert cli.NodeIdMismatch is NodeIdMismatch


class TestSplit:
    def test_70_15_15(self):
        tr, va, te = split(make_series(100), SplitSpec(0.7, 0.15, 0.15), min_steps=15)
        assert (tr.steps, va.steps, te.steps) == (70, 15, 15)

    def test_all_train(self):
        tr, va, te = split(make_series(50), SplitSpec(1.0, 0.0, 0.0), min_steps=50)
        assert (tr.steps, va.steps, te.steps) == (50, 0, 0)

    def test_concatenation_reproduces_series(self):
        s = make_series(37)
        tr, va, te = split(s, SplitSpec(), min_steps=1)
        rebuilt = np.concatenate([tr.values, va.values, te.values])
        np.testing.assert_array_equal(rebuilt, s.values)

    def test_chronological_disjoint(self):
        tr, va, te = split(make_series(60), SplitSpec(), min_steps=1)
        assert tr.timestamps[-1] < va.timestamps[0] < te.timestamps[0]

    def test_min_steps_enforced(self):
        with pytest.raises(DataError):
            split(make_series(40), SplitSpec(), min_steps=10)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DataError):
            SplitSpec(0.5, 0.2, 0.2)


class TestHideLocations:
    def test_zero_count(self, rng):
        graph, _ = generate_synthetic(8, 10, rng)
        g = hide_locations(graph, 0, rng)
        assert g.missing.size == 0 and g.observable.size == 8

    def test_all_but_one(self, rng):
        graph, _ = generate_synthetic(8, 10, rng)
        g = hide_locations(graph, 7, rng)
        assert g.observable.size == 1

    def test_count_equal_n_rejected(self, rng):
        graph, _ = generate_synthetic(8, 10, rng)
        with pytest.raises(DataError):
            hide_locations(graph, 8, rng)

    def test_fraction_accepted(self, rng):
        graph, _ = generate_synthetic(10, 10, rng)
        g = hide_locations(graph, 0.3, rng)
        assert g.missing.size == 3

    def test_seeded_reproducible(self, rng):
        graph, _ = generate_synthetic(12, 10, rng)
        a = hide_locations(graph, 4, np.random.default_rng(5))
        b = hide_locations(graph, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(a.missing, b.missing)

    def test_values_never_altered(self, rng):
        graph, series = generate_synthetic(8, 50, rng)
        before = series.values.copy()
        hide_locations(graph, 3, rng)
        np.testing.assert_array_equal(series.values, before)


class TestFillSmallGaps:
    def test_short_gap_interpolated(self):
        v = np.array([[1.0], [np.nan], [3.0]])
        out = fill_small_gaps(v)
        assert out[1, 0] == pytest.approx(2.0)

    def test_long_gap_left_alone(self):
        v = np.array([[1.0], [np.nan], [np.nan], [np.nan], [5.0]])
        out = fill_small_gaps(v)
        assert np.isnan(out[1:4, 0]).all()

    def test_leading_trailing_stay_nan(self):
        v = np.array([[np.nan], [1.0], [np.nan]])
        out = fill_small_gaps(v)
        assert np.isnan(out[0, 0]) and np.isnan(out[2, 0])

    def test_matches_loop_oracle_on_random_runs(self, rng):
        for _ in range(20):
            v = rng.uniform(10.0, 70.0, (60, 5))
            for col in range(5):
                t = int(rng.integers(0, 4))  # may start a leading run at step 0
                while t < 60:
                    v[t : t + int(rng.integers(1, 5)), col] = np.nan  # may run off the end
                    t += int(rng.integers(3, 12))
            np.testing.assert_array_equal(fill_small_gaps(v), naive_fill(v))


def naive_fill(values):
    """Column-by-column loop over every cell: the oracle for fill_small_gaps,
    which fills interior runs of at most two steps."""
    out = values.copy()
    steps = out.shape[0]
    for col in range(out.shape[1]):
        v = out[:, col]
        i = 0
        while i < steps:
            if not np.isnan(v[i]):
                i += 1
                continue
            j = i
            while j < steps and np.isnan(v[j]):
                j += 1
            run = j - i
            if 0 < i and j < steps and run <= 2:
                left, right = v[i - 1], v[j]
                for k in range(run):
                    v[i + k] = left + (right - left) * (k + 1) / (run + 1)
            i = j
    return out


class TestGenerateSynthetic:
    def test_values_bounded(self, rng):
        _, s = generate_synthetic(12, 600, rng)
        assert s.values.min() >= 0.0 and s.values.max() <= 80.0

    def test_zero_noise_exactly_periodic(self, rng):
        _, s = generate_synthetic(8, 600, rng, noise_amp=0.0)
        period = int(24 * 3600 / 300)
        np.testing.assert_allclose(s.values[:600 - period], s.values[period:], atol=1e-9)

    def test_neighbor_correlation_exceeds_far(self, rng):
        _, s = generate_synthetic(20, 1500, rng)
        v = s.values - s.values.mean(axis=0)
        corr = np.corrcoef(v.T)
        near = np.mean([corr[i, (i + 1) % 20] for i in range(20)])
        far = np.mean([corr[i, (i + 10) % 20] for i in range(20)])
        assert near > far

    def test_seeded_bit_reproducible(self):
        _, a = generate_synthetic(8, 100, np.random.default_rng(3))
        _, b = generate_synthetic(8, 100, np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)

    def test_too_few_nodes(self, rng):
        with pytest.raises(DataError):
            generate_synthetic(3, 10, rng)

    def test_graph_matches_series(self, rng):
        g, s = generate_synthetic(9, 20, rng)
        assert g.n == s.n and g.node_ids == s.node_ids

    def test_wave_het_keeps_bounds(self, rng):
        _, s = generate_synthetic(16, 400, rng, wave_het=0.9)
        assert s.values.min() >= 0.0 and s.values.max() <= 80.0
