"""Speed-series ingestion, chronological splitting, location hiding, and a
synthetic corridor generator for desk-scale experiments.

CSV contracts
-------------
speed CSV: header ``timestamp,<id0>,<id1>,...`` with distinct, nonempty
ids; one row per step; first column is the finite numeric timestamp in
seconds; empty cells are gaps.
distance CSV: header ``from,to,distance``; one directed pair per row;
absent pairs are infinite, self pairs default to 0.

Both loaders accept LF or CRLF line ends, cells quoted as the csv module
quotes them (so an id may hold a comma or a quote, and a quoted empty
value cell is a gap) and any Unicode id in the file's text encoding
(the locale's, UTF-8 on most systems). A number cell is what numpy's
text reader parses: decimal or exponent forms, ``nan``, ``inf`` and
``Infinity`` (any case, signed), with surrounding spaces. A cell that
only Python's float() reads, such as ``1_000`` or non-ASCII digits, is
refused. An error about a row names the first faulty row of the file,
counting the header as row 1; uneven timestamp spacing has no row.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .graph import RoadGraph, build_adjacency

__all__ = [
    "SpeedSeries",
    "SplitSpec",
    "DataError",
    "NodeIdMismatch",
    "SeriesFormatError",
    "check_node_ids",
    "load_speed_csv",
    "save_speed_csv",
    "load_distances_csv",
    "save_distances_csv",
    "write_csv",
    "split",
    "hide_locations",
    "fill_small_gaps",
    "generate_synthetic",
]


class DataError(ValueError):
    """Dataset does not satisfy a precondition (too short, bad count, ...)."""


class NodeIdMismatch(DataError):
    """A series' columns are not the nodes of the graph or model it meets."""


def check_node_ids(stored, found, owner: str) -> None:
    """Raise NodeIdMismatch at the first index where a series' node ids
    (``found``) differ from the ``stored`` ids of ``owner``."""
    for pos in range(max(len(stored), len(found))):
        want = stored[pos] if pos < len(stored) else None
        got = found[pos] if pos < len(found) else None
        if want != got:
            raise NodeIdMismatch(
                f"series has node {got!r} at node index {pos}, "
                f"but {owner} has {want!r} there"
            )


class SeriesFormatError(ValueError):
    """Malformed CSV content; carries the offending row number."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


def _uneven_step(timestamps: np.ndarray) -> int | None:
    """Index i of the first step ``timestamps[i + 1] - timestamps[i]`` that
    is not close to the first step, or None if the spacing is uniform."""
    dt = np.diff(timestamps)
    uneven = np.flatnonzero(~np.isclose(dt, dt[0])) if dt.size else dt
    return int(uneven[0]) if uneven.size else None


@dataclass(frozen=True)
class SpeedSeries:
    """Uniformly-sampled multivariate speed series; NaN marks a gap."""

    node_ids: tuple[str, ...]
    timestamps: np.ndarray  # (steps,) seconds, strictly increasing, uniform
    values: np.ndarray  # (steps, n) float64

    def __post_init__(self):
        t, v = self.timestamps, self.values
        if v.ndim != 2 or t.ndim != 1 or v.shape[0] != t.shape[0]:
            raise SeriesFormatError("values must be (steps, nodes) aligned with timestamps")
        if len(self.node_ids) != v.shape[1]:
            raise SeriesFormatError("node_ids length must match value columns")
        if t.size > 1:
            if (np.diff(t) <= 0).any():
                raise SeriesFormatError("timestamps must be strictly increasing")
            if _uneven_step(t) is not None:
                raise SeriesFormatError("timestamps must be uniformly spaced")

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def resolution(self) -> float:
        """Step duration in seconds (NaN for a single-row series)."""
        if self.timestamps.size < 2:
            return float("nan")
        return float(self.timestamps[1] - self.timestamps[0])

    def slice_steps(self, start: int, stop: int) -> "SpeedSeries":
        return SpeedSeries(
            node_ids=self.node_ids,
            timestamps=self.timestamps[start:stop].copy(),
            values=self.values[start:stop].copy(),
        )


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions; must sum to 1."""

    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0 for f in fracs):
            raise DataError("split fractions must be nonnegative")
        if not math.isclose(sum(fracs), 1.0, abs_tol=1e-9):
            raise DataError(f"split fractions must sum to 1, got {sum(fracs)}")


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; empty string for gaps."""
    if math.isnan(x):
        return ""
    if abs(x) < 1e15 and x == int(x):  # abs first: int(inf) raises
        return str(int(x))
    return repr(x)


def load_speed_csv(path) -> SpeedSeries:
    """Parse a speed CSV; gaps stay explicit as NaN, never zeros.

    The body is read by one ``np.loadtxt`` pass. A fault re-reads the file
    row by row only to name the first faulty row.
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SeriesFormatError("empty file", row=1) from None
        if len(header) < 2 or header[0] != "timestamp":
            raise SeriesFormatError("header must be 'timestamp,<sensor ids...>'", row=1)
        node_ids = tuple(header[1:])
        seen: set[str] = set()
        for node in node_ids:
            if not node:
                raise SeriesFormatError("empty sensor id in header", row=1)
            if node in seen:
                raise SeriesFormatError(f"duplicate sensor id {node!r} in header", row=1)
            seen.add(node)
        body = _gaps_as_nan(fh)
        first = next(body, None)
        if first is None:
            raise SeriesFormatError("the file has no readings after its header", row=2)
        try:
            table = np.loadtxt(
                itertools.chain([first], body),
                delimiter=",", quotechar='"', comments=None, ndmin=2,
            )
        except ValueError as err:
            raise _speed_fault(path, err) from None
    times = table[:, 0].copy()
    if (
        table.shape[1] != len(header)
        or not np.isfinite(times).all()
        or (times[1:] <= times[:-1]).any()
    ):
        raise _speed_fault(path, None)
    step = _uneven_step(times)
    if step is not None:  # timestamps[i + 1] is on file row i + 3
        raise SeriesFormatError(
            f"timestamps must be uniformly spaced: step {_fmt(times[step])} -> "
            f"{_fmt(times[step + 1])} differs from the first step of "
            f"{_fmt(times[1] - times[0])} s",
            row=step + 3,
        )
    return SpeedSeries(
        node_ids=node_ids,
        timestamps=times,
        values=np.ascontiguousarray(table[:, 1:]),
    )


# A quoted empty value cell. Inside a quoted field the same text would put
# a comma in that field, which no valid number holds.
_QUOTED_GAP = re.compile(r'(?<=,)""(?=,|$)')


def _gaps_as_nan(lines):
    """Body lines with every empty value cell, bare or quoted, spelt
    ``nan``; an empty timestamp stays empty, so it fails to parse.
    np.loadtxt would skip a blank line, which the contract counts as a row
    with no cells, so a blank line is passed on as ``,``, which fails to
    parse too."""
    for line in lines:
        line = line.rstrip("\r\n").replace(",,", ",nan,").replace(",,", ",nan,")
        if '"' in line:
            line = _QUOTED_GAP.sub("nan", line)
        yield line + "nan" if line.endswith(",") else line or ","


def _speed_fault(path, err: ValueError | None) -> SeriesFormatError:
    """The error for the first faulty row of a speed CSV whose header is
    valid, found by checking its rows one by one with csv and float().

    ``err`` is np.loadtxt's complaint, reported without a row when every
    row passes those checks (a cell only float() reads, such as ``1_000``).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        last = None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                return SeriesFormatError(f"expected {width} columns, got {len(row)}", row=lineno)
            try:
                t = float(row[0])
            except ValueError:
                return SeriesFormatError(f"unparsable timestamp {row[0]!r}", row=lineno)
            if not math.isfinite(t):
                return SeriesFormatError(f"non-finite timestamp {row[0]!r}", row=lineno)
            if last is not None and t <= last:
                return SeriesFormatError(f"timestamp {row[0]} not strictly increasing", row=lineno)
            last = t
            for cell in row[1:]:
                if cell:
                    try:
                        float(cell)
                    except ValueError:
                        return SeriesFormatError(f"unparsable value {cell!r}", row=lineno)
    return SeriesFormatError(f"unparsable content: {err}")


def write_csv(path, header, rows) -> None:
    """Write a table: the ``header`` row, then ``rows``, with LF line ends.

    A str or integer cell is written as it is and any other number as
    ``repr(float(x))``, which round-trips, so a rerun writes the same bytes.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [c if isinstance(c, (str, numbers.Integral)) else repr(float(c)) for c in row]
            for row in rows
        )


def save_speed_csv(series: SpeedSeries, path) -> None:
    rows = zip(series.timestamps, series.values)
    write_csv(path, ["timestamp", *series.node_ids],
              ([_fmt(float(t)), *(_fmt(float(x)) for x in row)] for t, row in rows))


# Distance rows parsed per np.loadtxt call: large enough to amortise the
# call, small enough that the parsed block stays a few MB.
DISTANCE_BLOCK_ROWS = 65536


def load_distances_csv(path, node_ids) -> np.ndarray:
    """Directed (from, to, distance) rows -> dense matrix aligned to node_ids.

    Absent pairs are np.inf, whether omitted or written ``inf``; omitted
    self pairs are 0. A NaN distance is refused. The body is read in
    blocks of ``DISTANCE_BLOCK_ROWS`` lines, each one ``np.loadtxt`` pass
    whose ids are mapped by one ``np.searchsorted``. A faulty block is
    re-read row by row only to name its first faulty row.
    """
    index = {nid: i for i, nid in enumerate(node_ids)}
    n = len(index)
    # One character longer than any node id, so a longer unknown id cannot
    # be cut down to a known one.
    id_dtype = f"U{max(map(len, index), default=0) + 1}"
    known = np.array(list(index), dtype=id_dtype)
    order = np.argsort(known)
    known, position = known[order], np.fromiter(index.values(), np.int64, n)[order]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    listed = np.zeros((n, n), dtype=bool)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or [c.strip() for c in header[:3]] != ["from", "to", "distance"]:
            raise SeriesFormatError("header must be 'from,to,distance'", row=1)
        first_row = 2
        while lines := list(itertools.islice(fh, DISTANCE_BLOCK_ROWS)):
            if not lines[0].strip():  # a faulty row; np.loadtxt warns on a blank-only block
                raise _distance_fault(lines, first_row, index, listed, None)
            try:
                rows = np.loadtxt(
                    lines,
                    dtype=[("src", id_dtype), ("dst", id_dtype), ("dist", np.float64)],
                    delimiter=",", quotechar='"', comments=None, ndmin=1,
                )
            except ValueError as err:
                raise _distance_fault(lines, first_row, index, listed, err) from None
            ends = []
            for column in ("src", "dst"):
                at = np.searchsorted(known, rows[column]).clip(max=max(n - 1, 0))
                if n == 0 or (known[at] != rows[column]).any():
                    raise _distance_fault(lines, first_row, index, listed, None)
                ends.append(position[at])
            pairs = ends[0] * n + ends[1]
            repeated = np.sort(pairs)
            if (
                len(rows) != len(lines)  # np.loadtxt skipped a blank line
                or not (rows["dist"] >= 0).all()  # a negative or NaN distance
                or (repeated[1:] == repeated[:-1]).any()
                or listed.flat[pairs].any()
            ):
                raise _distance_fault(lines, first_row, index, listed, None)
            listed.flat[pairs] = True
            d.flat[pairs] = rows["dist"]
            first_row += len(lines)
    return d


def _distance_fault(lines, first_row, index, listed, err) -> SeriesFormatError:
    """The error for the first faulty row of one block of distance rows,
    found by checking them one by one with csv, the id ``index`` and
    float(); ``listed`` marks the pairs of earlier blocks.

    ``err`` is np.loadtxt's complaint, reported without a row when every
    row passes those checks (a cell only float() reads, such as ``1_000``).
    """
    listed = listed.copy()
    for lineno, row in enumerate(csv.reader(lines), start=first_row):
        if len(row) != 3:
            return SeriesFormatError(f"expected 3 columns, got {len(row)}", row=lineno)
        src, dst, dist_s = row
        if src not in index or dst not in index:
            return SeriesFormatError(f"unknown sensor id in pair ({src}, {dst})", row=lineno)
        try:
            dist = float(dist_s)
        except ValueError:
            return SeriesFormatError(f"unparsable distance {dist_s!r}", row=lineno)
        if math.isnan(dist):
            return SeriesFormatError(f"NaN distance {dist_s!r}; an absent pair is inf", row=lineno)
        if dist < 0:
            return SeriesFormatError(f"negative distance {dist}", row=lineno)
        i, j = index[src], index[dst]
        if listed[i, j]:
            return SeriesFormatError(f"duplicate pair ({src}, {dst})", row=lineno)
        listed[i, j] = True
    return SeriesFormatError(f"unparsable content: {err}")


def save_distances_csv(distances: np.ndarray, node_ids, path) -> None:
    """Write finite off-diagonal entries as directed rows."""
    keep = np.isfinite(distances)
    np.fill_diagonal(keep, False)
    rows, cols = np.nonzero(keep)
    pairs = zip(rows.tolist(), cols.tolist(), distances[rows, cols].tolist())
    write_csv(path, ["from", "to", "distance"],
              ([node_ids[i], node_ids[j], _fmt(d)] for i, j, d in pairs))


def split(
    series: SpeedSeries, spec: SplitSpec, min_steps: int
) -> tuple[SpeedSeries, SpeedSeries, SpeedSeries]:
    """Contiguous chronological train/val/test slices (floor-rounded); the
    train slice and every nonempty other slice need ``min_steps`` steps."""
    n = series.steps
    n_train = int(n * spec.train_frac)
    n_val = int(n * spec.val_frac)
    parts = (
        series.slice_steps(0, n_train),
        series.slice_steps(n_train, n_train + n_val),
        series.slice_steps(n_train + n_val, n),
    )
    for name, part in zip(("train", "val", "test"), parts):
        if 0 < part.steps < min_steps:
            raise DataError(f"{name} slice has {part.steps} steps, need at least {min_steps}")
    if parts[0].steps < min_steps:
        raise DataError(f"train slice too short: {parts[0].steps} < {min_steps}")
    return parts


def hide_locations(graph: RoadGraph, count, rng: np.random.Generator) -> RoadGraph:
    """Uniformly mark ``count`` nodes (or a fraction in (0,1)) as missing.

    Any real number in (0, 1) is a fraction of the nodes, rounded down;
    any other count must be a whole number, and a bool is refused.
    Only visibility flags change; series values are never altered.
    """
    n = graph.n
    if isinstance(count, bool) or not isinstance(count, numbers.Real):
        raise DataError(f"hide count must be a number, got {count!r}")
    if 0 < count < 1:
        count = math.floor(round(n * float(count), 9))  # 0.29 * 100 is 28.999...
    elif not float(count).is_integer():
        raise DataError(f"hide count must be a whole number or in (0, 1), got {count!r}")
    count = int(count)
    if not 0 <= count < n:
        raise DataError(f"hide count must be in [0, {n}), got {count}")
    missing = np.sort(rng.choice(n, size=count, replace=False).astype(np.int64))
    observable = np.setdiff1d(np.arange(n, dtype=np.int64), missing)
    return graph.with_partition(observable, missing)


MAX_FILL_GAP = 2


def fill_small_gaps(values: np.ndarray) -> np.ndarray:
    """Linearly interpolate interior NaN runs of <= MAX_FILL_GAP steps per column.

    Longer runs (and leading/trailing gaps) stay NaN so the sampler can skip
    those windows.
    """
    out = values.copy()
    # Per column, the NaN flag flips where a run starts and one step past
    # its end, so the flips come in (start, stop) pairs.
    flips = np.diff(np.isnan(out.T), axis=1, prepend=False, append=False)
    cols, at_step = np.nonzero(flips)
    cols, start, stop = cols[::2], at_step[::2], at_step[1::2]
    run = stop - start
    fill = (start > 0) & (stop < out.shape[0]) & (run <= MAX_FILL_GAP)
    cols, start, stop, run = cols[fill], start[fill], stop[fill], run[fill]
    left, right = out[start - 1, cols], out[stop, cols]
    for k in range(run.max(initial=0)):
        at = run > k
        out[start[at] + k, cols[at]] = (
            left[at] + (right[at] - left[at]) * (k + 1) / (run[at] + 1)
        )
    return out


# The generated corridor's fixed shape: 5-minute steps, sensors 1 km
# apart, free flow at 60 km/h, speeds clipped to [0, 80].
RESOLUTION_S = 300.0
SPACING_KM = 1.0
BASE_SPEED = 60.0
SPEED_CAP = 80.0


def generate_synthetic(
    n_nodes: int,
    steps: int,
    rng: np.random.Generator,
    *,
    diurnal_amp: float = 12.0,
    wave_amp: float = 8.0,
    wave_het: float = 0.0,
    noise_amp: float = 2.0,
    kappa_hops: float = 2.5,
) -> tuple[RoadGraph, SpeedSeries]:
    """Ring-corridor network with spatially correlated traveling slowdowns.

    Nodes sit on a ring ``SPACING_KM`` apart; road distance is the shorter
    arc, and the kernel keeps pairs closer than ``kappa_hops`` spacings.
    Speeds, one row per ``RESOLUTION_S`` seconds, are a free-flow
    ``BASE_SPEED`` minus a diurnal congestion bump and a faster traveling
    wave, both phase-lagged with ring position so neighboring sensors carry
    information about each other, plus bounded uniform noise; everything is
    clipped to [0, SPEED_CAP]. With noise_amp=0 the series is exactly
    periodic with the diurnal period.

    ``wave_het`` in [0, 1) modulates the wave amplitude smoothly around the
    ring (two strong and two calm arcs), making some regions intrinsically
    richer in local signal; 0 keeps every node statistically identical.
    """
    if n_nodes < 4:
        raise DataError(f"need at least 4 nodes, got {n_nodes}")
    if steps < 2:  # one row has no step length
        raise DataError(f"need at least 2 steps, got {steps}")
    for name, amp in (("diurnal_amp", diurnal_amp), ("wave_amp", wave_amp),
                      ("noise_amp", noise_amp), ("wave_het", wave_het)):
        if not math.isfinite(amp):
            raise DataError(f"{name} must be finite, got {amp}")
    if not kappa_hops > 0:
        raise DataError(f"kappa_hops must be positive, got {kappa_hops}")
    positions = np.arange(n_nodes).astype(np.float64) * SPACING_KM
    circumference = n_nodes * SPACING_KM
    gaps = np.abs(positions[:, None] - positions[None, :])
    distances = np.minimum(gaps, circumference - gaps)

    node_ids = tuple(f"s{i:03d}" for i in range(n_nodes))
    graph = build_adjacency(
        distances, sigma=None, kappa=kappa_hops * SPACING_KM, node_ids=node_ids
    )

    steps_per_day = (24 * 3600.0) / RESOLUTION_S
    t = np.arange(steps, dtype=np.float64)[:, None]
    phase = (2.0 * np.pi * positions / circumference)[None, :]
    omega = 2.0 * np.pi / steps_per_day
    diurnal = diurnal_amp * (0.5 + 0.5 * np.sin(omega * t - phase)) ** 2
    wave_scale = 1.0 + wave_het * np.sin(2.0 * phase + 1.3)
    wave = wave_amp * wave_scale * (0.5 + 0.5 * np.sin(3.0 * omega * t - 3.0 * phase + 0.7))
    noise = noise_amp * rng.uniform(-1.0, 1.0, size=(steps, n_nodes))
    values = np.clip(BASE_SPEED - diurnal - wave + noise, 0.0, SPEED_CAP)

    series = SpeedSeries(
        node_ids=node_ids,
        timestamps=np.arange(steps, dtype=np.float64) * RESOLUTION_S,
        values=values,
    )
    return graph, series
