"""The benchmark's workloads: per-op input generation, the op, its checks.

Every op gets its own input, generated from (workload seed, op index)
before the op starts, so no op can reuse another op's work. Only the op
itself is timed; generating and writing its input counts as set-up.

``count_ops`` is the number of ops every run completes, whatever its
length; the traced counters and the estimates digest cover these ops, so
they repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from drivedml import cli, dml, report, simulate
from drivedml import io as signal_io
from drivedml.boosting import GbmParams
from drivedml.presets import PRESET_NAMES
from drivedml.simulate import GazeStep, PlmScenario, SignalProfile

# Trees per nuisance GBM in study_presets. The shipped presets use 100,
# which makes one op take 80-90 s on a 2-CPU box; 5 keeps every preset,
# fold, outcome and treatment component (1 600 trees per op on the same
# ~650-row folds) inside the benchmark's time budget.
STUDY_TREES = 5
STUDY_MISSING_ROWS = 62

# acceptance criterion 1's nuisance learners and scenario
PLM_PARAMS = GbmParams(n_estimators=80, learning_rate=0.1, max_depth=3, min_leaf=20, seed=0)
PLM_N = 10_000
PLM_MAX_SE = 4.0

DRIVE_SECONDS = 600.0
PX_PER_DEG = 35.0
HR_TOL_BPM = 0.1
RESP_TOL_PER_MIN = 0.1
PEAK_TOL_S = 0.020


def op_seed(seed: int, op: int) -> int:
    """Seed of one op's input, fixed by the workload seed and op index."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


@dataclass
class OpResult:
    ok: bool
    problems: list = field(default_factory=list)
    digest: str = ""
    facts: dict = field(default_factory=dict)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class StudyPresets:
    """All nine presets over one simulated 42 x 21 study table per op."""

    name = "study_presets"
    count_ops = 2

    def prepare(self, seed: int, op: int, op_dir: Path) -> dict:
        s = op_seed(seed, op)
        rows = simulate.gen_study_dataset(seed=s, missing_rows=STUDY_MISSING_ROWS)
        data = op_dir / "study.csv"
        simulate.write_study_csv(rows, data)
        return {"data": data, "out": op_dir / "run", "seed": s}

    def run(self, inp: dict):
        params = GbmParams(n_estimators=STUDY_TREES)
        return report.run_presets(
            inp["data"], PRESET_NAMES, inp["out"], seed=inp["seed"],
            outcome_params=params, treatment_params=params,
        )

    def check(self, inp: dict, manifest) -> OpResult:
        problems = []
        names = [m.spec.name for m in manifest.models]
        if names != list(PRESET_NAMES):
            problems.append(f"models {names}")
        if not (inp["out"] / "manifest.json").is_file():
            problems.append("manifest.json not written")
        rows = []
        for m in manifest.models:
            for e in m.estimates:
                if not (math.isfinite(e.estimation) and math.isfinite(e.se) and e.se > 0):
                    problems.append(f"{m.spec.name}: {e.outcome}/{e.treatment} "
                                    f"estimate {e.estimation} se {e.se}")
                rows.append(e.to_jsonable())
        return OpResult(not problems, problems, _digest(rows))


class PlmFit:
    """One acceptance-sized fit_dml (n = 10 000, k = 5, 80 trees) per op."""

    name = "plm_fit"
    count_ops = 4

    def prepare(self, seed: int, op: int, op_dir: Path) -> dict:
        s = op_seed(seed, op)
        table, oracle = simulate.gen_plm_dataset(PlmScenario(
            n=PLM_N, effect_intercept=2.0, gamma=1.0, delta=1.0, seed=s,
        ))
        spec = dml.ModelSpec(
            name="plm", features=("x1",), outcomes=("outcome",),
            treatments=("treatment",), confounders=("w1",),
            treatment_kind="continuous", k_folds=5, seed=s,
            outcome_params=PLM_PARAMS, treatment_params=PLM_PARAMS,
        )
        return {"table": table, "spec": spec, "truth": float(oracle.true_ate[0])}

    def run(self, inp: dict):
        return dml.fit_dml(inp["table"], inp["spec"])

    def check(self, inp: dict, result) -> OpResult:
        est = result.ates[0]
        err = abs(est.estimation - inp["truth"])
        problems = []
        if not (math.isfinite(est.se) and est.se > 0 and err <= PLM_MAX_SE * est.se):
            problems.append(f"ATE {est.estimation} vs oracle {inp['truth']}, se {est.se}")
        return OpResult(not problems, problems, _digest(est.to_jsonable()),
                        {"ate_abs_err": err})


def drive_profile(seed: int, op: int) -> SignalProfile:
    """A 600 s drive's sensor script, drawn from (seed, op).

    Every fourth drive has a constant RR interval on the 100 Hz sample
    grid; its tachogram has no HF power, so LF/HF comes out NaN. That is
    the known defect the nonfinite_features counter keeps visible.
    """
    rng = np.random.default_rng([seed, op])
    if op % 4 == 3:
        rr_pattern = (0.02 * int(rng.integers(30, 61)),)
        hr = 60.0 / rr_pattern[0]
    else:
        hr = float(rng.uniform(50.0, 100.0))
        period = int(rng.integers(3, 11))
        depth = float(rng.uniform(0.02, 0.06))
        rr_pattern = tuple(
            float(60.0 / hr * (1.0 + depth * np.sin(2 * np.pi * k / period)))
            for k in range(period)
        )
    breath_hz = float(rng.uniform(0.15, 0.4))
    cycles = ()
    if rng.random() < 0.5:
        cycles = tuple(float(c) for c in (1.0 / breath_hz) * (1.0 + rng.uniform(-0.1, 0.1, 6)))
    mains = rng.random() < 0.5
    scr = tuple(sorted(
        (float(rng.uniform(10.0, DRIVE_SECONDS - 20.0)), float(rng.uniform(0.2, 0.8)))
        for _ in range(int(rng.integers(3, 9)))
    ))
    steps = []
    t = 0.0
    sign = 1.0
    while t < DRIVE_SECONDS - 5.0:
        d = float(rng.uniform(0.5, 4.0))
        steps.append(GazeStep("fixation", d, pupil_area=float(rng.uniform(700.0, 1100.0))))
        steps.append(GazeStep("saccade", 0.05, move_deg=sign * float(rng.uniform(2.0, 10.0))))
        sign = -sign
        t += d + 0.05
    steps.append(GazeStep("fixation", DRIVE_SECONDS - t))
    return SignalProfile(
        hr_bpm=hr,
        rr_pattern=rr_pattern,
        mains_hz=float(rng.choice([50.0, 60.0])) if mains else 0.0,
        mains_amplitude=0.2 if mains else 0.0,
        baseline_wander_amplitude=float(rng.uniform(0.0, 0.3)),
        eda_tonic=float(rng.uniform(1.0, 5.0)),
        scr_events=scr,
        breath_hz=breath_hz,
        breath_cycle_lengths=cycles,
        gaze_steps=tuple(steps),
        px_per_deg=PX_PER_DEG,
    )


class DriveExtract:
    """`drivedml extract` on one 600 s four-channel drive per op."""

    name = "drive_extract"
    # enough ops for op_tail_s, the percentile with 10 ops beyond it
    count_ops = 20

    def prepare(self, seed: int, op: int, op_dir: Path) -> dict:
        profile = drive_profile(seed, op)
        bundle = simulate.gen_synthetic_signals(profile, DRIVE_SECONDS)
        paths = {k: op_dir / f"{k}.csv" for k in ("ecg", "eda", "resp", "gaze")}
        signal_io.write_timeseries_csv(bundle.ecg, paths["ecg"])
        signal_io.write_timeseries_csv(bundle.eda, paths["eda"])
        signal_io.write_timeseries_csv(bundle.resp, paths["resp"])
        signal_io.write_gaze_csv(bundle.gaze, paths["gaze"])
        return {"paths": paths, "out": op_dir / "features.json",
                "profile": profile, "truth": bundle.truth}

    def run(self, inp: dict):
        p = inp["paths"]
        return cli.main([
            "extract", "--ecg", str(p["ecg"]), "--eda", str(p["eda"]),
            "--resp", str(p["resp"]), "--gaze", str(p["gaze"]),
            "--px-per-deg", str(PX_PER_DEG), "--out", str(inp["out"]),
        ])

    def check(self, inp: dict, code) -> OpResult:
        if code != 0:
            return OpResult(False, [f"exit code {code}"])
        features = json.loads(inp["out"].read_text(encoding="utf-8"))
        truth = inp["truth"]
        hr_true = 60.0 / float(np.mean(np.diff(truth.r_peak_times)))
        cycles = inp["profile"].breath_cycle_lengths
        resp_true = 60.0 / float(np.mean(cycles)) if cycles else 60.0 * inp["profile"].breath_hz
        problems = []
        if not abs(features.get("HR", math.nan) - hr_true) <= HR_TOL_BPM:
            problems.append(f"HR {features.get('HR')} vs truth {hr_true}")
        if not abs(features.get("RR", math.nan) - resp_true) <= RESP_TOL_PER_MIN:
            problems.append(f"RR {features.get('RR')} vs truth {resp_true}")
        nonfinite = sum(not math.isfinite(v) for v in features.values())
        return OpResult(not problems, problems, _digest(features),
                        {"nonfinite_features": nonfinite})

    def traced_counts(self, inp: dict, captured: dict) -> dict:
        """R peaks the traced detect_r_peaks calls matched against truth."""
        true_times = inp["truth"].r_peak_times
        peaks = captured.get("signals.detect_r_peaks", [])
        return {
            "signals.r_peaks_matched": sum(matched_peaks(p, true_times) for p in peaks),
            "signals.r_peaks_true": len(true_times) * len(peaks),
        }


def matched_peaks(detected, true_times) -> int:
    """True R peaks with a detected peak within PEAK_TOL_S."""
    detected = np.asarray(detected, dtype=np.float64)
    if detected.size == 0:
        return 0
    nearest = np.abs(true_times[:, None] - detected[None, :]).min(axis=1)
    return int((nearest <= PEAK_TOL_S + 1e-9).sum())


WORKLOADS = {w.name: w for w in (StudyPresets(), PlmFit(), DriveExtract())}
