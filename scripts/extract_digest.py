"""Print the sha256 digests of the extract path on a fixed set of drives.

Each drive is simulated with ``gen_synthetic_signals``, written as the
four signal CSVs by ``io.write_timeseries_csv`` and ``io.write_gaze_csv``,
read back by ``io.read_timeseries`` and ``io.read_gaze_csv`` and passed
to ``extract_drive_features``. The script hashes, over all drives, the
CSV bytes, the loaded arrays (samples, sample rate and start time) and
the features as ``json.dumps(..., sort_keys=True)``. Two commits whose
digests match write the same files, load the same arrays and extract
the same features, bit for bit.

The drives cover a constant RR interval on the sample grid (its LF/HF
is NaN), scripted RR and breath cycles, mains noise, SCR events, gaze
saccades and a 250 Hz / 120 Hz recording.

With ``--dump PATH`` it also writes each drive's features and R-peak
times as JSON, so that two commits whose features digest differs can be
compared value by value.

Usage: python scripts/extract_digest.py [--dump PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from drivedml.io import read_gaze_csv, read_timeseries, write_gaze_csv, write_timeseries_csv
from drivedml.signals import detect_r_peaks, extract_drive_features
from drivedml.simulate import GazeStep, SignalProfile, gen_synthetic_signals

DURATION_S = 120.0
PX_PER_DEG = 35.0


def _gaze_steps(fixations: tuple) -> tuple:
    steps = []
    sign = 1.0
    for k, seconds in enumerate(fixations):
        steps.append(GazeStep("fixation", seconds, pupil_area=800.0 + 40.0 * k))
        steps.append(GazeStep("saccade", 0.05, move_deg=sign * (3.0 + k % 4)))
        sign = -sign
    return tuple(steps)


# (name, profile, physio rate Hz, gaze rate Hz)
DRIVES = (
    ("constant-rr", SignalProfile(hr_bpm=60.0), 100.0, 60.0),
    ("scripted-cycles", SignalProfile(
        rr_pattern=(0.8, 1.0, 0.9, 0.85),
        baseline_wander_amplitude=0.2,
        scr_events=((15.0, 0.4), (52.0, 0.7), (90.0, 0.3)),
        breath_cycle_lengths=(3.6, 4.4, 3.9, 4.8, 4.1),
        gaze_steps=_gaze_steps((2.0, 1.5, 3.0, 0.8, 2.5) * 10),
        px_per_deg=PX_PER_DEG,
    ), 100.0, 60.0),
    ("mains-250hz", SignalProfile(
        hr_bpm=72.0,
        rr_pattern=tuple(60.0 / 72.0 + 0.04 * np.sin(2 * np.pi * k / 11) for k in range(11)),
        mains_hz=50.0,
        mains_amplitude=0.2,
        eda_tonic=3.5,
        scr_events=((30.0, 0.5), (75.0, 0.2)),
        breath_hz=0.3,
        gaze_steps=_gaze_steps((1.0, 2.2, 0.6, 3.1) * 15),
        px_per_deg=PX_PER_DEG,
    ), 250.0, 120.0),
)


def _series_bytes(samples: np.ndarray, rate: float, start: float) -> bytes:
    return np.ascontiguousarray(samples).tobytes() + repr((rate, start)).encode("ascii")


def extract_digests(dump: dict | None = None) -> dict:
    """{"csv", "loaded", "features": sha256} over every drive in DRIVES.

    When ``dump`` is a dict, each drive's features and R-peak times go
    into it under the drive's name.
    """
    hashes = {key: hashlib.sha256() for key in ("csv", "loaded", "features")}
    with tempfile.TemporaryDirectory() as tmp:
        for name, profile, physio_rate, gaze_rate in DRIVES:
            bundle = gen_synthetic_signals(profile, DURATION_S, physio_rate, gaze_rate)
            paths = {k: Path(tmp) / f"{name}-{k}.csv" for k in ("ecg", "eda", "resp", "gaze")}
            for key in ("ecg", "eda", "resp"):
                write_timeseries_csv(getattr(bundle, key), paths[key])
            write_gaze_csv(bundle.gaze, paths["gaze"])
            for path in paths.values():
                hashes["csv"].update(path.read_bytes())

            series = {key: read_timeseries(paths[key]) for key in ("ecg", "eda", "resp")}
            gaze = read_gaze_csv(paths["gaze"], PX_PER_DEG)
            for s in series.values():
                hashes["loaded"].update(_series_bytes(s.samples, s.sample_rate, s.start_time))
            for column in (gaze.x_px, gaze.y_px, gaze.pupil_area):
                hashes["loaded"].update(_series_bytes(column, gaze.sample_rate, gaze.start_time))

            features = extract_drive_features(**series, gaze=gaze)
            hashes["features"].update(json.dumps(features, sort_keys=True).encode("utf-8"))
            if dump is not None:
                dump[name] = {"features": features,
                              "r_peaks": detect_r_peaks(series["ecg"]).tolist()}
    return {key: h.hexdigest() for key, h in hashes.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="PATH",
                        help="write each drive's features and R-peak times as JSON")
    args = parser.parse_args()
    dump = {} if args.dump else None
    digests = extract_digests(dump)
    if args.dump:
        Path(args.dump).write_text(json.dumps(dump, indent=1) + "\n", encoding="utf-8")
    print(f"drives {len(DRIVES)}, {DURATION_S:g} s each")
    for key, value in digests.items():
        print(f"{key} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
