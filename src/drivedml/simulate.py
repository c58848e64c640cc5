"""Synthetic data with known ground truth.

Three generator families back the test and acceptance suites:

* partially linear structural models whose true treatment effects are
  recorded alongside the data (the oracle for every estimator check),
* the Latin-square experiment schedule used to order drives,
* raw sensor signals (ECG, EDA, respiration, gaze) with ground-truth
  annotations for the feature extractors.

There is also a full synthetic study table shaped like the real
experiment (participants x drives with states and symbol columns), which
feeds the CLI presets end to end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .rng import numpy_rng
from .signals import GazeEvent, GazeRecording, TimeSeries
from .study_data import (
    NDRT_LEVELS,
    STUDY_COLUMNS,
    SYMBOL_VARS,
    FeatureTable,
    _write_table_csv,
)

# ---------------------------------------------------------------------------
# Partially linear model scenarios


@dataclass(frozen=True)
class PlmScenario:
    """One synthetic structural model with one feature x1 and one confounder w1.

    Continuous kind:
        T = gamma * w1 + eta,  eta ~ N(0, 1)
        Y = theta(x1) * T + delta * w1 + g(x1) + eps,  eps ~ N(0, 1)
    with theta(x) = effect_intercept + slope * x (``effect_slopes`` holds
    at most one slope; empty means 0) and the fixed nonlinearity
    g(x) = 0.5 * x^2 + sin(x), chosen so the nuisance models must be
    genuinely nonlinear.

    Discrete kind: treatment levels are drawn from a multinomial with
    logits gamma * w1 * loading_l (loadings evenly spaced in [-1, 1])
    and Y adds level_effects[T] instead of theta(x1) * T; the first level
    is the baseline with effect 0.
    """

    n: int
    effect_intercept: float = 2.0
    effect_slopes: tuple = ()
    gamma: float = 1.0
    delta: float = 1.0
    kind: str = "continuous"
    levels: tuple = ()
    level_effects: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("n must be positive")
        # an infinite or NaN coefficient would write a table of inf or NaN
        for name in ("effect_intercept", "effect_slopes", "gamma", "delta", "level_effects"):
            if not np.isfinite(np.asarray(getattr(self, name), dtype=np.float64)).all():
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kind not in ("continuous", "discrete"):
            raise ValidationError(f"unknown treatment kind {self.kind!r}")
        if len(self.effect_slopes) > 1:
            raise ValidationError("effect_slopes holds at most one slope, for x1")
        if self.kind == "discrete":
            if len(self.levels) < 2:
                raise ValidationError("discrete scenario needs at least 2 levels")
            if len(self.level_effects) != len(self.levels):
                raise ValidationError("one effect per level required")
            if self.level_effects[0] != 0.0:
                raise ValidationError("baseline (first) level effect must be 0")


@dataclass
class OracleRecord:
    """Ground truth recorded by the generator."""

    true_ate: np.ndarray          # one entry per treatment component
    pointwise_cates: np.ndarray   # n x components
    naive_estimate: np.ndarray    # naive (confounded) estimate per component
    naive_se: np.ndarray
    effect_intercept: float = 0.0
    effect_slopes: tuple = ()


def _nonlinearity(features: np.ndarray) -> np.ndarray:
    return (0.5 * features**2 + np.sin(features)).sum(axis=1)


def _naive_ols_slope(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and conventional SE of the unadjusted OLS of y on [1, t]."""
    tc = t - t.mean()
    slope = float((tc * y).sum() / (tc * tc).sum())
    resid = y - y.mean() - slope * tc
    dof = len(y) - 2
    var = float((resid**2).sum() / dof / (tc * tc).sum())
    return slope, float(np.sqrt(var))


def gen_plm_dataset(scenario: PlmScenario) -> tuple[FeatureTable, OracleRecord]:
    """Draw one dataset plus its oracle from a PLM scenario.

    The table's columns are x1, w1, treatment and outcome; a discrete
    treatment column holds level indices into ``scenario.levels``.
    """
    rng = numpy_rng(scenario.seed, "plm")
    n = scenario.n
    X = rng.standard_normal((n, 1))
    W = rng.standard_normal((n, 1))
    w = W[:, 0]
    eps = rng.standard_normal(n)
    g = _nonlinearity(X)

    if scenario.kind == "continuous":
        T = scenario.gamma * w + rng.standard_normal(n)
        theta = np.full(n, scenario.effect_intercept)
        if scenario.effect_slopes:
            theta = theta + X @ np.asarray(scenario.effect_slopes)
        Y = theta * T + scenario.delta * w + g + eps
        pointwise = theta.reshape(-1, 1)
        slope, se = _naive_ols_slope(T, Y)
        naive, naive_se = [slope], [se]
        intercept, slopes = scenario.effect_intercept, tuple(scenario.effect_slopes)
        categorical = {}
    else:
        levels = list(scenario.levels)
        loadings = np.linspace(-1.0, 1.0, len(levels))
        logits = scenario.gamma * w[:, None] * loadings[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random(n)
        cum = np.cumsum(probs, axis=1)
        t_idx = (u[:, None] > cum).sum(axis=1)
        effects = np.asarray(scenario.level_effects)
        Y = effects[t_idx] + scenario.delta * w + g + eps
        T = t_idx.astype(np.float64)
        pointwise = np.tile(effects[1:], (n, 1))
        naive, naive_se = [], []
        base_mask = t_idx == 0
        for lv in range(1, len(levels)):
            mask = t_idx == lv
            if mask.sum() < 2 or base_mask.sum() < 2:
                naive.append(np.nan)
                naive_se.append(np.nan)
                continue
            naive.append(Y[mask].mean() - Y[base_mask].mean())
            naive_se.append(np.sqrt(Y[mask].var(ddof=1) / mask.sum()
                                    + Y[base_mask].var(ddof=1) / base_mask.sum()))
        intercept, slopes = 0.0, ()
        categorical = {"treatment": levels}

    oracle = OracleRecord(
        true_ate=pointwise.mean(axis=0),
        pointwise_cates=pointwise,
        naive_estimate=np.asarray(naive),
        naive_se=np.asarray(naive_se),
        effect_intercept=intercept,
        effect_slopes=slopes,
    )
    table = FeatureTable(
        column_names=["x1", "w1", "treatment", "outcome"],
        values=np.column_stack([X, W, T, Y]),
        categorical_levels=categorical,
    )
    return table, oracle


# ---------------------------------------------------------------------------
# Experiment schedule


def latin_square(conditions, seed: int = 0) -> list:
    """Cyclic Latin square with a seeded symbol permutation and row shuffle."""
    labels = list(conditions)
    if not labels:
        raise ValidationError("need at least one condition")
    k = len(labels)
    rng = numpy_rng(seed, "latin-square")
    symbols = [labels[i] for i in rng.permutation(k)]
    square = [[symbols[(i + j) % k] for j in range(k)] for i in range(k)]
    order = rng.permutation(k)
    return [square[i] for i in order]


def gen_experiment_schedule(n_participants: int, conditions, seed: int = 0) -> list:
    """Per-participant drive orders; participant p gets square row p mod k."""
    if n_participants < 1:
        raise ValidationError(f"need at least one participant, got {n_participants}")
    square = latin_square(conditions, seed)
    k = len(square)
    return [list(square[p % k]) for p in range(n_participants)]


def expand_conditions(conditions, repetitions: int = 3) -> list:
    """Expand task conditions into distinct per-repetition drive labels."""
    return [f"{c}#{r}" for c in conditions for r in range(1, repetitions + 1)]


def drive_label_condition(label: str) -> str:
    """Recover the task condition from an expanded drive label."""
    return label.split("#", 1)[0]


# ---------------------------------------------------------------------------
# Raw signal bundles


@dataclass(frozen=True)
class GazeStep:
    kind: str             # "fixation" | "saccade"
    duration_s: float
    move_deg: float = 0.0
    pupil_area: float = 900.0


@dataclass(frozen=True)
class SignalProfile:
    """Script for one synthetic drive's sensor channels.

    ECG R waves are Gaussians of 10 ms SD at ``hr_bpm`` (or the
    cycled ``rr_pattern``), plus optional baseline wander and mains hum;
    EDA is ``eda_tonic`` plus a biexponential response per SCR event;
    respiration is a unit-amplitude sine at ``breath_hz`` (or the cycled
    ``breath_cycle_lengths``); gaze follows ``gaze_steps`` at
    ``px_per_deg``, one fixation for the whole drive when empty.
    """

    hr_bpm: float = 60.0
    rr_pattern: tuple = ()          # explicit RR intervals (s), cycled
    mains_hz: float = 0.0
    mains_amplitude: float = 0.0
    baseline_wander_amplitude: float = 0.0
    eda_tonic: float = 2.0
    scr_events: tuple = ()          # (onset_time_s, amplitude_uS)
    breath_hz: float = 0.25
    breath_cycle_lengths: tuple = ()  # explicit cycle lengths (s), cycled
    gaze_steps: tuple = ()
    px_per_deg: float = 35.0


@dataclass
class SignalTruth:
    r_peak_times: np.ndarray
    scr_events: list                 # (onset_t, amplitude)
    breath_boundaries: np.ndarray
    gaze_events: list

    def to_jsonable(self) -> dict:
        return {
            "r_peak_times": self.r_peak_times.tolist(),
            "scr_events": [list(e) for e in self.scr_events],
            "breath_boundaries": self.breath_boundaries.tolist(),
            "gaze_events": [asdict(e) for e in self.gaze_events],
        }


@dataclass
class SignalBundle:
    ecg: TimeSeries
    eda: TimeSeries
    resp: TimeSeries
    gaze: GazeRecording
    truth: SignalTruth


_R_WAVE_SIGMA_S = 0.01  # SD of the Gaussian R wave, s
_SCR_RISE_TAU = 0.4
_SCR_DECAY_TAU = 3.0


def _scr_shape(u: np.ndarray) -> np.ndarray:
    """Biexponential response normalized to unit peak amplitude."""
    # clamped so that samples long before the onset cannot overflow exp
    v = np.maximum(u, 0.0)
    h = np.where(u >= 0, np.exp(-v / _SCR_DECAY_TAU) - np.exp(-v / _SCR_RISE_TAU), 0.0)
    u_peak = (
        np.log(_SCR_DECAY_TAU / _SCR_RISE_TAU)
        * _SCR_RISE_TAU * _SCR_DECAY_TAU / (_SCR_DECAY_TAU - _SCR_RISE_TAU)
    )
    peak = np.exp(-u_peak / _SCR_DECAY_TAU) - np.exp(-u_peak / _SCR_RISE_TAU)
    return h / peak


def gen_synthetic_signals(
    profile: SignalProfile,
    duration: float,
    physio_rate: float = 100.0,
    gaze_rate: float = 60.0,
) -> SignalBundle:
    """Raw channels plus ground truth for a scripted synthetic drive.

    The gaze script may end before ``duration`` but not run past it by
    more than one gaze sample, and every step must last a positive time.
    Every SCR event needs a finite onset before ``duration`` and a
    finite amplitude.
    """
    if not all(0.0 < v < np.inf for v in (duration, physio_rate, gaze_rate)):
        raise ValidationError("duration and rates must be finite and positive")
    for i, (onset, amp) in enumerate(profile.scr_events):
        if not np.isfinite((onset, amp)).all():
            raise ValidationError(
                f"SCR event {i} has onset {onset!r} s and amplitude {amp!r}; "
                "both must be finite"
            )
        if onset >= duration:
            raise ValidationError(
                f"SCR event {i} starts at {onset!r} s, at or past the "
                f"{duration:g} s recording"
            )
    steps = profile.gaze_steps or (GazeStep("fixation", duration),)
    for i, step in enumerate(steps):
        if not step.duration_s > 0:
            raise ValidationError(
                f"gaze step {i} ({step.kind}) lasts {step.duration_s!r} s; "
                "step durations must be positive"
            )
    scripted = sum(step.duration_s for step in steps)
    if scripted > duration + 1.0 / gaze_rate:
        raise ValidationError(
            f"gaze script lasts {scripted:g} s, past the {duration:g} s recording"
        )
    t = np.arange(int(round(duration * physio_rate))) / physio_rate

    # ECG: Gaussian R-wave train
    if profile.rr_pattern:
        rr = list(profile.rr_pattern)
        peaks = []
        cursor = rr[0] / 2.0
        i = 0
        while cursor < duration:
            peaks.append(cursor)
            cursor += rr[i % len(rr)]
            i += 1
        peak_times = np.asarray(peaks)
    else:
        rr0 = 60.0 / profile.hr_bpm
        peak_times = np.arange(rr0 / 2.0, duration, rr0)
    ecg = np.zeros_like(t)
    sig = _R_WAVE_SIGMA_S
    for pt in peak_times:
        lo = max(int((pt - 5 * sig) * physio_rate), 0)
        hi = min(int((pt + 5 * sig) * physio_rate) + 1, len(t))
        ecg[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - pt) / sig) ** 2)
    if profile.baseline_wander_amplitude:
        ecg += profile.baseline_wander_amplitude * np.sin(2 * np.pi * 0.2 * t)
    if profile.mains_hz and profile.mains_amplitude:
        ecg += profile.mains_amplitude * np.sin(2 * np.pi * profile.mains_hz * t)

    # EDA: tonic level plus scripted phasic bumps
    eda = np.full_like(t, profile.eda_tonic)
    for onset, amp in profile.scr_events:
        # the shape is exactly 0.0 before its onset, where a finite
        # amplitude adds nothing, so starting at the onset changes no bit
        i0 = int(np.searchsorted(t, onset))
        eda[i0:] += amp * _scr_shape(t[i0:] - onset)

    # Respiration: sinusoid with scripted cycle lengths
    if profile.breath_cycle_lengths:
        boundaries = [0.0]
        i = 0
        while boundaries[-1] < duration:
            boundaries.append(boundaries[-1] + profile.breath_cycle_lengths[i % len(profile.breath_cycle_lengths)])
            i += 1
        boundaries = np.asarray(boundaries)
        phase = np.interp(t, boundaries, 2 * np.pi * np.arange(len(boundaries)))
        resp = np.sin(phase)
        breath_boundaries = boundaries[boundaries < duration]
    else:
        resp = np.sin(2 * np.pi * profile.breath_hz * t)
        breath_boundaries = np.arange(0.0, duration, 1.0 / profile.breath_hz)

    # Gaze: scripted fixation/saccade trajectory
    xs, ys, pupil = [], [], []
    events = []
    x_pos, y_pos = 960.0, 540.0
    cursor = 0.0
    for step in steps:
        n_samp = max(int(round(step.duration_s * gaze_rate)), 1)
        if step.kind == "fixation":
            xs.extend([x_pos] * n_samp)
            ys.extend([y_pos] * n_samp)
            pupil.extend([step.pupil_area] * n_samp)
            events.append(GazeEvent("fixation", cursor, cursor + n_samp / gaze_rate,
                                    step.pupil_area, 0.0))
        else:
            move_px = step.move_deg * profile.px_per_deg
            for k in range(1, n_samp + 1):
                xs.append(x_pos + move_px * k / n_samp)
                ys.append(y_pos)
                pupil.append(step.pupil_area)
            x_pos += move_px
            events.append(GazeEvent("saccade", cursor, cursor + n_samp / gaze_rate,
                                    None, abs(step.move_deg)))
        cursor += n_samp / gaze_rate

    truth = SignalTruth(
        r_peak_times=peak_times,
        scr_events=[(float(o), float(a)) for o, a in profile.scr_events],
        breath_boundaries=breath_boundaries,
        gaze_events=events,
    )
    return SignalBundle(
        ecg=TimeSeries(ecg, physio_rate),
        eda=TimeSeries(eda, physio_rate),
        resp=TimeSeries(resp, physio_rate),
        gaze=GazeRecording(
            np.asarray(xs), np.asarray(ys), np.asarray(pupil),
            gaze_rate, 0.0, profile.px_per_deg,
        ),
        truth=truth,
    )


# ---------------------------------------------------------------------------
# Whole-study synthetic table

# Additional cognitive load imposed by each task, on the NASA scale.
TASK_LOAD = {
    "Base": 0.0, "NB0": 2.0, "NB1": 5.0, "NB2": 9.0,
    "MT1": 7.0, "MT2": 4.0, "ST": 8.5,
}

# symbol = intercept + nasa_coeff * NASA + kss_coeff * KSS + N(0, sd)
SYMBOL_MODEL = {
    "PA":    (900.0,  6.0,  -8.0, 25.0),
    "FR":    (110.0,  0.6,  -1.2,  6.0),
    "FT":    (40.0,   0.25, -0.5,  2.5),
    "SR":    (90.0,  -0.5,   1.5,  6.0),
    "ST":    (6.0,   -0.04,  0.12, 0.5),
    "SA":    (5.0,   -0.03,  0.08, 0.4),
    "SCL":   (4.0,    0.12, -0.10, 0.5),
    "SCR":   (0.45,   0.015, -0.02, 0.06),
    "HR":    (72.0,   0.5,  -0.8,  3.0),
    "RMSSD": (32.0,  -0.5,   1.1,  4.0),
    "SDNN":  (48.0,  -0.6,  -0.9,  5.0),
    "LF":    (1100.0, 9.0, -14.0, 90.0),
    "HF":    (800.0, -8.0,  16.0, 80.0),
    "LFHF":  (1.6,    0.03, -0.05, 0.2),
    "RR":    (14.0,   0.12, -0.2,  1.0),
    "RD":    (7.0,   -0.05,  0.1,  0.6),
    "RV":    (11.0,   0.08,  0.15, 1.2),
}


def gen_study_dataset(
    seed: int = 0,
    n_participants: int = 42,
    repetitions: int = 3,
    missing_rows: int = 0,
) -> list:
    """Synthetic study rows shaped like the real experiment.

    Each participant performs ``len(NDRT_LEVELS) * repetitions`` drives in
    a Latin-square order. States respond to the task and to elapsed
    drives; symbol columns respond to the states. ``missing_rows`` rows
    get one blanked symbol cell to exercise the drop path. A count of
    participants below 1 raises ``ValidationError``.
    """
    rng = numpy_rng(seed, "study")
    labels = expand_conditions(NDRT_LEVELS, repetitions)
    schedule = gen_experiment_schedule(n_participants, labels, seed)
    sym_base, sym_nasa, sym_kss, sym_sd = np.array(list(SYMBOL_MODEL.values())).T
    rows = []
    for p in range(n_participants):
        age = float(rng.integers(20, 61))
        gender = 1 if rng.random() < 24.0 / 42.0 else 2
        trust = float(np.clip(np.round(rng.normal(36.7, 6.9), 1), 22, 49))
        drive_e = float(min(max(1, int(rng.normal(age - 25, 5))), int(age - 18)))
        drive_d = int(rng.integers(1, 5))
        for k, label in enumerate(schedule[p], start=1):
            cond = drive_label_condition(label)
            load = TASK_LOAD[cond]
            nasa = (
                1.5 + load
                + 0.05 * (age - 35.0)
                + 0.06 * (trust - 36.0)
                + rng.normal(0.0, 1.5)
            )
            nasa = float(np.clip(np.round(nasa, 2), 1, 20))
            kss = (
                2.5 + 0.12 * k
                - 0.22 * load
                + 0.02 * (age - 35.0)
                + 0.05 * drive_d
                + rng.normal(0.0, 0.9)
            )
            kss = float(np.clip(np.round(kss, 2), 1, 10))
            row = {
                "Participant": f"P{p + 1:02d}",
                "Time": k,
                "NDRT": cond,
                "NASA": nasa,
                "KSS": kss,
                "Age": age,
                "Gender": gender,
                "Trust": trust,
                "DriveE": drive_e,
                "DriveD": drive_d,
            }
            # one draw and one rounding for all symbols, in SYMBOL_MODEL order
            raw = sym_base + sym_nasa * nasa + sym_kss * kss + rng.normal(0.0, sym_sd)
            row.update(zip(SYMBOL_MODEL, np.round(raw, 4).tolist()))
            rows.append(row)
    if not 0 <= missing_rows <= len(rows):
        raise ValidationError(
            f"missing_rows must be between 0 and the {len(rows)} rows; got {missing_rows}"
        )
    if missing_rows:
        victims = rng.choice(len(rows), size=missing_rows, replace=False)
        for v in victims:
            col = SYMBOL_VARS[int(rng.integers(0, len(SYMBOL_VARS)))]
            rows[int(v)][col] = None
    return rows


def write_study_csv(rows: list, path: str | Path) -> None:
    """Write study rows in the canonical column order."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        _write_table_csv(f, STUDY_COLUMNS, ([row[c] for c in STUDY_COLUMNS] for row in rows))
