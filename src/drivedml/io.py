"""File interfaces for raw signals.

A channel is a ``time,value`` CSV, or raw little-endian float64 samples
next to a JSON sidecar {"sample_rate": ..., "units": ..., "start_time": ...}.
Gaze recordings are ``time,x,y,pupil_area`` CSVs. One parser reads every
CSV: one number per cell, blank lines skipped, at least two rows and a
finite uniform time axis, which sets the rate. A bad cell names its row.
The csv module checks the header; numpy then reads the file by path, in
chunks, from the line after it.

The writers emit a ``time,<names>`` header, then each sample's time and
values as Python ``repr`` cells (which read back bit for bit; NaN is
``nan``), every row ending in CRLF.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError, utf8_text
from .signals import GazeRecording, TimeSeries

_GAZE_CHANNELS = ("x", "y", "pupil_area")
# np.loadtxt decompresses a path with one of these suffixes
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# rows the writer formats with one % operation: fewer make more Python
# calls per sample, more make larger strings and raise peak memory
_ROWS_PER_FORMAT = 8


def read_timeseries(path: str | Path) -> TimeSeries:
    path = Path(path)
    if path.suffix.lower() != ".csv":
        return _read_timeseries_binary(path)
    values, rate, start_time = _read_sampled_csv(path, ("value",))
    return TimeSeries(values[:, 0], rate, start_time=start_time)


def _read_timeseries_binary(path: Path) -> TimeSeries:
    sidecar = path.with_suffix(".json")
    if not sidecar.exists():
        raise ValidationError(f"{path}: missing JSON sidecar {sidecar.name}")
    with open(sidecar, encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValidationError(f"{sidecar}: invalid JSON sidecar ({exc})") from None
    try:
        rate = float(meta["sample_rate"])
        start_time = float(meta.get("start_time", 0.0))
        if not (0.0 < rate < np.inf and np.isfinite(start_time)):  # json reads NaN, Infinity
            raise ValueError
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"{sidecar}: sidecar needs a finite positive 'sample_rate'"
                              " and, if given, a finite 'start_time'") from None
    size = path.stat().st_size
    if size % 8:  # np.fromfile would silently drop the trailing partial sample
        raise ValidationError(f"{path}: {size} bytes is not a whole number of 8-byte float64 samples")
    samples = np.fromfile(path, dtype="<f8")
    return TimeSeries(samples, rate, units=meta.get("units", ""), start_time=start_time)


def write_timeseries_csv(series: TimeSeries, path: str | Path) -> None:
    _write_sampled_csv(path, series, ("value",), (series.samples,))


def read_gaze_csv(path: str | Path, px_per_deg: float | None = None) -> GazeRecording:
    values, rate, start_time = _read_sampled_csv(Path(path), _GAZE_CHANNELS)
    return GazeRecording(values[:, 0], values[:, 1], values[:, 2], rate, start_time, px_per_deg)


def write_gaze_csv(gaze: GazeRecording, path: str | Path) -> None:
    _write_sampled_csv(path, gaze, _GAZE_CHANNELS, (gaze.x_px, gaze.y_px, gaze.pupil_area))


def _parse_rows(source, n_columns: int, skiprows: int = 0) -> np.ndarray:
    with warnings.catch_warnings():  # no rows is reported as too few samples
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, delimiter=",", quotechar='"', comments=None,
                          usecols=range(n_columns), ndmin=2, skiprows=skiprows,
                          encoding="utf-8-sig")


def _read_sampled_csv(path: Path, names: tuple) -> tuple[np.ndarray, float, float]:
    """(values of shape (n, len(names)), sample rate, start time) of a sampled CSV."""
    header = ("time", *names)
    if path.suffix in _COMPRESSED_SUFFIXES:
        raise ValidationError(f"{path}: a CSV name must not end in {path.suffix},"
                              " which marks a compressed file")
    # utf-8-sig drops the byte-order mark Excel writes in "CSV UTF-8"
    with utf8_text(path, csv_rows=True):
        with open(path, encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            found = next(reader, [])
        if [h.strip().lower() for h in found[: len(header)]] != list(header):
            raise ValidationError(f"{path}: expected '{','.join(header)}' header")
        try:
            # given a path, numpy reads the file in chunks; a file object
            # would make it pull one Python line per row. skiprows counts
            # physical lines, as line_num does when a quoted header cell
            # holds a newline
            data = _parse_rows(path, len(header), skiprows=reader.line_num)
        except ValueError as exc:
            # name the first data row that also fails on its own
            with open(path, encoding="utf-8-sig") as f:
                next(csv.reader(f))
                for i, line in enumerate(f, start=1):
                    try:
                        _parse_rows([line], len(header))
                    except ValueError:
                        row = next(csv.reader([line]))
                        raise ValidationError(f"{path}: bad row {i}: {row}") from None
            raise ValidationError(f"{path}: {exc}") from None
    if len(data) < 2:
        raise ValidationError(f"{path}: need at least two samples")
    # a NaN or infinite time makes a NaN step or spread, and NaN fails the check
    with np.errstate(invalid="ignore", over="ignore"):
        steps = np.diff(data[:, 0])
        step = float(np.median(steps))
        uniform = step > 0 and np.abs(steps - step).max() <= step * 1e-3
    if not uniform:
        raise ValidationError(f"{path}: time axis is not finite and uniformly sampled")
    return data[:, 1:], 1.0 / step, float(data[0, 0])


def _write_sampled_csv(path, recording, names: tuple, columns: tuple) -> None:
    times = recording.start_time + np.arange(len(columns[0])) / recording.sample_rate
    table = np.column_stack((times, *columns))
    # each float is written as its repr, which reads back bit for bit
    row_format = ",".join(["%r"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(("time", *names)) + "\r\n")
        for lo in range(0, len(table), _ROWS_PER_FORMAT):
            block = table[lo : lo + _ROWS_PER_FORMAT]
            f.write(row_format * len(block) % tuple(block.ravel().tolist()))
