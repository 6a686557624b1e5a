import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapcast import cli, data
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
    write_csv,
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

    @pytest.mark.parametrize(
        "times, row",
        [((0, 300, 900, 1200), 4), ((0, 300, 600, 900, 1500), 6), ((0, 60, 300), 4)],
    )
    def test_skipped_step_names_its_row(self, tmp_path, times, row):
        body = "".join(f"{t},{i}\n" for i, t in enumerate(times))
        p = write(tmp_path / "s.csv", "timestamp,a\n" + body)
        with pytest.raises(SeriesFormatError, match="uniformly spaced") as err:
            load_speed_csv(p)
        dt = np.diff(times)
        assert err.value.row == row == np.flatnonzero(~np.isclose(dt, dt[0]))[0] + 3

    def test_duplicate_sensor_id_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a,b,a,b\n0,1,2,3,4\n300,1,2,3,4\n")
        with pytest.raises(SeriesFormatError, match="duplicate sensor id 'a'") as err:
            load_speed_csv(p)
        assert err.value.row == 1

    def test_empty_sensor_id_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a,\n0,1,2\n300,1,2\n")
        with pytest.raises(SeriesFormatError, match="empty sensor id") as err:
            load_speed_csv(p)
        assert err.value.row == 1

    @pytest.mark.parametrize(
        "times, row",
        [
            (("0", "300", "nan", "900"), 4),  # nan mid-file
            (("0", "300", "600", "nan"), 5),  # nan last
            (("-inf", "0", "300"), 2),
            (("0", "300", "inf"), 4),
        ],
        ids=["nan-mid", "nan-last", "-inf-first", "inf-last"],
    )
    def test_nonfinite_timestamp_names_its_row(self, tmp_path, times, row):
        body = "".join(f"{t},{i}\n" for i, t in enumerate(times))
        p = write(tmp_path / "s.csv", "timestamp,a\n" + body)
        with pytest.raises(SeriesFormatError, match="non-finite timestamp") as err:
            load_speed_csv(p)
        assert err.value.row == row

    def test_infinite_values_round_trip(self, tmp_path):
        series = SpeedSeries(("a", "b"), np.array([0.0, 300.0]),
                             np.array([[np.inf, 1.5], [-np.inf, np.nan]]))
        save_speed_csv(series, tmp_path / "s.csv")  # _fmt spells them, no OverflowError
        assert (tmp_path / "s.csv").read_text().splitlines()[1:] == ["0,inf,1.5", "300,-inf,"]
        assert_same_bits(load_speed_csv(tmp_path / "s.csv").values, series.values)

    def test_header_only_names_row_2(self, tmp_path):
        p = write(tmp_path / "s.csv", "timestamp,a,b\n")
        with pytest.raises(SeriesFormatError, match="no readings after its header") as err:
            load_speed_csv(p)
        assert err.value.row == 2

    def test_one_row_loads_without_a_resolution(self, tmp_path):
        s = load_speed_csv(write(tmp_path / "s.csv", "timestamp,a,b\n0,1,2\n"))
        assert s.steps == 1 and np.isnan(s.resolution)

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

    @pytest.mark.parametrize("block", [1, 65536])
    @pytest.mark.parametrize(
        "rows", ["a,b,1\nb,a,nan\n", "a,b,1\nb,a,NaN\n", "a,b,1\nb,a,-nan\nb,b,1e\n"],
        ids=["nan", "NaN", "-nan-then-unparsable"],
    )
    def test_nan_distance_names_its_row(self, tmp_path, rows, block):
        # the bulk check, and the row-by-row search it and np.loadtxt's
        # failures fall back to, both refuse it
        p = write(tmp_path / "d.csv", "from,to,distance\n" + rows)
        with mock.patch.object(data, "DISTANCE_BLOCK_ROWS", block):
            with pytest.raises(SeriesFormatError, match="NaN distance") as err:
                load_distances_csv(p, ("a", "b"))
        assert err.value.row == 3

    def test_inf_distance_is_an_absent_pair(self, tmp_path):
        p = write(tmp_path / "d.csv", "from,to,distance\na,b,inf\nb,a,2\n")
        d = load_distances_csv(p, ("a", "b"))
        np.testing.assert_array_equal(d, [[0.0, np.inf], [2.0, 0.0]])

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


class TestWriteCsv:
    def test_cell_rule_header_and_line_ends(self, tmp_path):
        # Integers of any type stay integers; every other number is
        # repr(float(x)); an id holding a comma is quoted; lines end in LF.
        path = tmp_path / "t.csv"
        write_csv(path, ["id", "a", "b"], [
            ["x,y", np.int64(3), 3],
            ["z", np.float64(1e-5), math.nan],
            ["w", -math.inf, 3.0],
        ])
        assert path.read_bytes() == b'id,a,b\n"x,y",3,3\nz,1e-05,nan\nw,-inf,3.0\n'


def reference_speed(path):
    """Row-by-row speed CSV reader (csv, then float() per cell): the
    reference whose values and errors the bulk loader must reproduce."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        times, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SeriesFormatError(
                    f"expected {len(header)} columns, got {len(row)}", row=lineno
                )
            try:
                t = float(row[0])
            except ValueError:
                raise SeriesFormatError(f"unparsable timestamp {row[0]!r}", row=lineno) from None
            if not math.isfinite(t):
                raise SeriesFormatError(f"non-finite timestamp {row[0]!r}", row=lineno)
            if times and t <= times[-1]:
                raise SeriesFormatError(f"timestamp {row[0]} not strictly increasing", row=lineno)
            vals = []
            for cell in row[1:]:
                try:
                    vals.append(float(cell) if cell else math.nan)
                except ValueError:
                    raise SeriesFormatError(f"unparsable value {cell!r}", row=lineno) from None
            times.append(t)
            rows.append(vals)
    return tuple(header[1:]), np.asarray(times), np.asarray(rows)


def reference_distances(path, node_ids):
    """Row-by-row distance CSV reader: the reference for the bulk loader."""
    index = {nid: i for i, nid in enumerate(node_ids)}
    d = np.full((len(index), len(index)), np.inf)
    np.fill_diagonal(d, 0.0)
    listed = np.zeros(d.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise SeriesFormatError(f"expected 3 columns, got {len(row)}", row=lineno)
            src, dst, dist_s = row
            if src not in index or dst not in index:
                raise SeriesFormatError(f"unknown sensor id in pair ({src}, {dst})", row=lineno)
            try:
                dist = float(dist_s)
            except ValueError:
                raise SeriesFormatError(f"unparsable distance {dist_s!r}", row=lineno) from None
            if math.isnan(dist):
                raise SeriesFormatError(
                    f"NaN distance {dist_s!r}; an absent pair is inf", row=lineno
                )
            if dist < 0:
                raise SeriesFormatError(f"negative distance {dist}", row=lineno)
            i, j = index[src], index[dst]
            if listed[i, j]:
                raise SeriesFormatError(f"duplicate pair ({src}, {dst})", row=lineno)
            listed[i, j] = True
            d[i, j] = dist
    return d


def write_rows(path, rows, terminator="\n", quoting=csv.QUOTE_MINIMAL):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator=terminator, quoting=quoting).writerows(rows)
    return path


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_error(load, reference, *args):
    with pytest.raises(SeriesFormatError) as got:
        load(*args)
    with pytest.raises(SeriesFormatError) as want:
        reference(*args)
    assert (got.value.row, str(got.value)) == (want.value.row, str(want.value))
    return got.value


# Ids with the characters csv must quote, a space and non-ASCII letters.
node_id_lists = st.lists(
    st.text(st.sampled_from(list('ab0,"é日 ')), min_size=1, max_size=4),
    min_size=1, max_size=5, unique=True,
)
number_cells = st.builds(
    lambda x, fmt: fmt(x),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([repr, "{:e}".format, "{:E}".format, "{:+.17g}".format, "{:.3f}".format]),
)
value_cells = st.one_of(
    st.just(""), st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity"]), number_cells
)
distance_cells = st.one_of(
    st.sampled_from(["inf", "Infinity", "0", "-0", "-0.0"]),
    st.builds(
        lambda x, fmt: fmt(x),
        st.floats(min_value=0, max_value=1e300),
        st.sampled_from([repr, "{:e}".format, "{:E}".format, "{:.2f}".format]),
    ),
)
terminators = st.sampled_from(["\n", "\r\n"])
quotings = st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
SPEED_FAULTS = ("ragged", "blank", "timestamp", "nonfinite", "value", "order")
DISTANCE_FAULTS = ("ragged", "blank", "unknown", "distance", "negative", "nan", "duplicate")
PATCHED = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def speed_tables(draw, min_steps=1):
    """A valid speed table as csv rows: header, then one row per step."""
    ids = draw(node_id_lists)
    steps = draw(st.integers(min_steps, 8))
    t0, dt = draw(st.integers(0, 10**4)), draw(st.integers(1, 100))
    stamp = draw(st.sampled_from([str, lambda t: repr(float(t)), "{}E0".format, "{:e}".format]))
    body = [
        [stamp(t0 + k * dt), *draw(st.lists(value_cells, min_size=len(ids), max_size=len(ids)))]
        for k in range(steps)
    ]
    return [["timestamp", *ids], *body]


@st.composite
def distance_tables(draw, min_rows=0):
    """Node ids and a valid distance table as csv rows."""
    ids = draw(node_id_lists)
    pairs = st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1))
    chosen = draw(st.lists(pairs, min_size=min_rows, max_size=12, unique=True))
    rows = [[ids[i], ids[j], draw(distance_cells)] for i, j in chosen]
    return tuple(ids), [["from", "to", "distance"], *rows]


def inject(rows, at, kind, ids=()):
    """Make body row ``at`` (index into ``rows``, header at 0) faulty."""
    row = list(rows[at])
    if kind == "ragged":
        row = row[:-1] if len(row) > 2 else [*row, "1"]
    elif kind == "blank":
        row = []
    elif kind == "timestamp":
        row[0] = "" if at % 2 else "1.0.0"
    elif kind == "nonfinite":
        row[0] = ("nan", "inf", "-inf")[at % 3]
    elif kind == "value":
        row[-1] = "abc"
    elif kind == "order":  # the previous row's timestamp (or the header's)
        row[0] = rows[at - 1][0]
    elif kind == "unknown":  # a known id with one character more
        row[at % 2] = rows[at][at % 2] + "0"
        while row[at % 2] in ids:
            row[at % 2] += "0"
    elif kind == "distance":
        row[2] = "1e"
    elif kind == "negative":
        row[2] = "-inf" if at % 2 else "-2.5"
    elif kind == "nan":
        row[2] = ("nan", "NaN", "-nan")[at % 3]
    elif kind == "duplicate":  # the pair of the previous row (or the header)
        row[:2] = rows[at - 1][:2]
    rows[at] = row


@pytest.mark.filterwarnings("error::UserWarning")
class TestLoadersAgainstReference:
    """The bulk loaders read what a row-by-row csv + float() reader reads,
    bit for bit, and name the row that reader names for every fault."""

    @PATCHED
    @given(table=speed_tables(), terminator=terminators, quoting=quotings)
    def test_speed_values(self, tmp_path, table, terminator, quoting):
        path = write_rows(tmp_path / "s.csv", table, terminator, quoting)
        ids, times, values = reference_speed(path)
        got = load_speed_csv(path)
        assert got.node_ids == ids
        assert_same_bits(got.timestamps, times)
        assert_same_bits(got.values, values)
        assert got.values.flags.c_contiguous

    @PATCHED
    @given(
        data_=st.data(), table=speed_tables(min_steps=2), terminator=terminators, quoting=quotings
    )
    def test_speed_faults(self, tmp_path, data_, table, terminator, quoting):
        count = data_.draw(st.integers(1, min(2, len(table) - 1)))
        rows = data_.draw(
            st.lists(st.integers(1, len(table) - 1), min_size=count, max_size=count, unique=True)
        )
        kinds = data_.draw(
            st.lists(st.sampled_from(SPEED_FAULTS), min_size=count, max_size=count, unique=True)
        )
        for at, kind in sorted(zip(rows, kinds), reverse=True):
            inject(table, at, kind)
        path = write_rows(tmp_path / "s.csv", table, terminator, quoting)
        err = assert_same_error(load_speed_csv, reference_speed, path)
        assert err.row == min(rows) + 1  # file rows count from 1

    @PATCHED
    @given(
        table=distance_tables(), terminator=terminators, quoting=quotings,
        block=st.sampled_from([1, 2, 3, 65536]),
    )
    def test_distance_values(self, tmp_path, table, terminator, quoting, block):
        ids, rows = table
        path = write_rows(tmp_path / "d.csv", rows, terminator, quoting)
        with mock.patch.object(data, "DISTANCE_BLOCK_ROWS", block):
            got = load_distances_csv(path, ids)
        assert_same_bits(got, reference_distances(path, ids))

    @PATCHED
    @given(
        data_=st.data(), table=distance_tables(min_rows=2), terminator=terminators,
        quoting=quotings, block=st.sampled_from([1, 2, 3, 65536]),
    )
    def test_distance_faults(self, tmp_path, data_, table, terminator, quoting, block):
        ids, table = table
        count = data_.draw(st.integers(1, min(2, len(table) - 1)))
        rows = data_.draw(
            st.lists(st.integers(1, len(table) - 1), min_size=count, max_size=count, unique=True)
        )
        kinds = data_.draw(
            st.lists(st.sampled_from(DISTANCE_FAULTS), min_size=count, max_size=count, unique=True)
        )
        for at, kind in sorted(zip(rows, kinds), reverse=True):
            inject(table, at, kind, ids)
        path = write_rows(tmp_path / "d.csv", table, terminator, quoting)
        with mock.patch.object(data, "DISTANCE_BLOCK_ROWS", block):
            err = assert_same_error(load_distances_csv, reference_distances, path, ids)
        assert err.row == min(rows) + 1

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
    def test_speed_gap_layouts(self, tmp_path, quoting):
        rows = [
            ["timestamp", "a", "b,c", 'q"d', "é"],
            ["0", "", "1", "2", "3"],  # first column
            ["300", "1", "", "2", "3"],  # middle
            ["600", "1", "2", "3", ""],  # last
            ["900", "", "", "", ""],  # a run of gaps over the whole row
            ["1200", "1e1", "", "", "-2.5E-3"],
        ]
        path = write_rows(tmp_path / "s.csv", rows, "\r\n", quoting)
        got = load_speed_csv(path)
        assert got.node_ids == ("a", "b,c", 'q"d', "é")
        assert_same_bits(got.values, reference_speed(path)[2])
        assert np.isnan(got.values).sum() == 9

    def test_quoted_empty_timestamp_is_no_gap(self, tmp_path):
        rows = [["timestamp", "a"], ["0", "1"], ["", "2"], ["600", "3"]]
        path = write_rows(tmp_path / "s.csv", rows, quoting=csv.QUOTE_ALL)
        err = assert_same_error(load_speed_csv, reference_speed, path)
        assert str(err) == "row 3: unparsable timestamp ''"

    def test_every_row_ragged_alike(self, tmp_path):
        path = write(tmp_path / "s.csv", "timestamp,a\n0,1,2\n300,3,4\n")
        err = assert_same_error(load_speed_csv, reference_speed, path)
        assert err.row == 2 and "expected 2 columns, got 3" in str(err)

    def test_longer_id_with_known_prefix_is_unknown(self, tmp_path):
        path = write(tmp_path / "d.csv", "from,to,distance\ns000,s001,1\ns0001,s000,2\n")
        with pytest.raises(SeriesFormatError) as err:
            load_distances_csv(path, ("s000", "s001"))
        assert str(err.value) == "row 3: unknown sensor id in pair (s0001, s000)"

    def test_duplicate_across_the_block_boundary(self, tmp_path):
        ids = tuple(f"n{i}" for i in range(257))  # 65,792 pairs: two blocks
        rows = [[a, b, "1"] for a in ids for b in ids if a != b]
        assert len(rows) > data.DISTANCE_BLOCK_ROWS
        path = write_rows(tmp_path / "d.csv", [["from", "to", "distance"], *rows, rows[0]])
        err = assert_same_error(load_distances_csv, reference_distances, path, ids)
        assert err.row == len(rows) + 2 and "duplicate pair (n0, n1)" in str(err)


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

    @pytest.mark.parametrize(
        "count, hidden",
        [(0.2, 4), (np.float32(0.2), 4), (np.float64(0.2), 4), (4, 4), (np.int64(4), 4), (4.0, 4)],
    )
    def test_any_real_fraction_or_whole_count(self, count, hidden):
        graph, _ = generate_synthetic(20, 10, np.random.default_rng(0))
        g = hide_locations(graph, count, np.random.default_rng(1))
        assert g.missing.size == hidden

    @pytest.mark.parametrize(
        "nodes, count, hidden",
        [(100, 0.29, 29), (100, 0.57, 57), (100, 0.58, 58), (100, 0.999, 99),
         (20, 0.2, 4), (200, 0.2, 40), (1000, 0.2, 200)],
    )
    def test_fraction_rounds_down_exactly(self, nodes, count, hidden):
        """The floor of the decimal product: 0.29 * 100 is 28.999999999999996
        in binary, and still hides 29 nodes."""
        graph, _ = generate_synthetic(nodes, 10, np.random.default_rng(0))
        assert hide_locations(graph, count, np.random.default_rng(1)).missing.size == hidden

    @pytest.mark.parametrize("count", [2.7, 1.5, float("nan"), True, False, np.bool_(True), "3"])
    def test_count_not_whole_rejected(self, rng, count):
        graph, _ = generate_synthetic(20, 10, rng)
        with pytest.raises(DataError, match="hide count"):
            hide_locations(graph, count, rng)

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

    @pytest.mark.parametrize("steps", [0, 1])
    def test_too_few_steps(self, rng, steps):
        with pytest.raises(DataError, match="at least 2 steps"):
            generate_synthetic(8, steps, rng)

    def test_graph_matches_series(self, rng):
        g, s = generate_synthetic(9, 20, rng)
        assert g.n == s.n and g.node_ids == s.node_ids

    def test_wave_het_keeps_bounds(self, rng):
        _, s = generate_synthetic(16, 400, rng, wave_het=0.9)
        assert s.values.min() >= 0.0 and s.values.max() <= 80.0

    @pytest.mark.parametrize("name", ["diurnal_amp", "wave_amp", "noise_amp", "wave_het"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_amplitude_named(self, rng, name, value):
        with pytest.raises(DataError, match=f"{name} must be finite"):
            generate_synthetic(8, 20, rng, **{name: value})
