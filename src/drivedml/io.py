"""File interfaces for raw signals.

Two on-disk forms are accepted: a two-column CSV (time,value) whose rate
is inferred from the time axis, and raw little-endian float64 samples
next to a JSON sidecar {"sample_rate": ..., "units": ..., "start_time": ...}.
Gaze recordings are CSVs with time,x,y,pupil_area columns.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .signals import GazeRecording, TimeSeries


def read_timeseries(path: str | Path) -> TimeSeries:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_timeseries_csv(path)
    return _read_timeseries_binary(path)


def _read_timeseries_csv(path: Path) -> TimeSeries:
    times = []
    values = []
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header = next(reader)
        if [h.strip().lower() for h in header[:2]] != ["time", "value"]:
            raise ValidationError(f"{path}: expected 'time,value' header")
        for i, row in enumerate(reader, start=1):
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (ValueError, IndexError):
                raise ValidationError(f"{path}: bad row {i}: {row}") from None
    if len(times) < 2:
        raise ValidationError(f"{path}: need at least two samples")
    steps = np.diff(times)
    step = float(np.median(steps))
    if step <= 0 or np.abs(steps - step).max() > step * 1e-3:
        raise ValidationError(f"{path}: time axis is not uniformly sampled")
    return TimeSeries(np.asarray(values), 1.0 / step, start_time=times[0])


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
    except (KeyError, TypeError, ValueError):
        raise ValidationError(
            f"{sidecar}: sidecar needs a numeric 'sample_rate' and, if given, 'start_time'"
        ) from None
    size = path.stat().st_size
    if size % 8:
        # np.fromfile would silently drop the trailing partial sample
        raise ValidationError(
            f"{path}: {size} bytes is not a whole number of 8-byte float64 samples"
        )
    samples = np.fromfile(path, dtype="<f8")
    return TimeSeries(samples, rate, units=meta.get("units", ""), start_time=start_time)


def write_timeseries_csv(series: TimeSeries, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["time", "value"])
        for t, v in zip(series.times(), series.samples):
            writer.writerow([repr(float(t)), repr(float(v))])


def read_gaze_csv(path: str | Path, px_per_deg: float | None = None) -> GazeRecording:
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header = next(reader)
        expected = ["time", "x", "y", "pupil_area"]
        if [h.strip().lower() for h in header[:4]] != expected:
            raise ValidationError(f"{path}: expected 'time,x,y,pupil_area' header")
        for i, row in enumerate(reader, start=1):
            try:
                rows.append(tuple(float(c) for c in row[:4]))
            except (ValueError, IndexError):
                raise ValidationError(f"{path}: bad row {i}: {row}") from None
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two samples")
    arr = np.asarray(rows)
    steps = np.diff(arr[:, 0])
    step = float(np.median(steps))
    if step <= 0 or np.abs(steps - step).max() > step * 1e-3:
        raise ValidationError(f"{path}: time axis is not uniformly sampled")
    return GazeRecording(
        arr[:, 1], arr[:, 2], arr[:, 3],
        sample_rate=1.0 / step, start_time=float(arr[0, 0]), px_per_deg=px_per_deg,
    )


def write_gaze_csv(gaze: GazeRecording, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["time", "x", "y", "pupil_area"])
        times = gaze.start_time + np.arange(len(gaze)) / gaze.sample_rate
        for t, x, y, p in zip(times, gaze.x_px, gaze.y_px, gaze.pupil_area):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(y)), repr(float(p))])
