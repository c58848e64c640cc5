import hashlib
import json

import numpy as np
import pytest

from drivedml.errors import ValidationError
from drivedml.simulate import (
    GazeStep,
    PlmScenario,
    SignalProfile,
    _SCR_DECAY_TAU,
    _SCR_RISE_TAU,
    _scr_shape,
    drive_label_condition,
    expand_conditions,
    gen_experiment_schedule,
    gen_plm_dataset,
    gen_study_dataset,
    gen_synthetic_signals,
    latin_square,
)
from drivedml.study_data import NDRT_LEVELS, SYMBOL_VARS


def test_seed_determinism_bitwise():
    sc = PlmScenario(n=500, seed=42)
    t1, o1 = gen_plm_dataset(sc)
    t2, o2 = gen_plm_dataset(sc)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(o1.pointwise_cates, o2.pointwise_cates)
    t3, _ = gen_plm_dataset(PlmScenario(n=500, seed=43))
    assert not np.array_equal(t1.values, t3.values)


def test_unconfounded_naive_estimate_is_clean():
    sc = PlmScenario(n=20000, effect_intercept=2.0, gamma=0.0, delta=0.0, seed=5)
    _, oracle = gen_plm_dataset(sc)
    assert abs(oracle.naive_estimate[0] - 2.0) <= 4 * oracle.naive_se[0]


def test_confounded_naive_estimate_is_biased():
    sc = PlmScenario(n=10000, effect_intercept=2.0, gamma=1.0, delta=1.0, seed=5)
    _, oracle = gen_plm_dataset(sc)
    assert abs(oracle.naive_estimate[0] - 2.0) >= 10 * oracle.naive_se[0]


def test_heterogeneous_oracle_consistency():
    sc = PlmScenario(n=5000, effect_intercept=1.0, effect_slopes=(2.0,), seed=7)
    table, oracle = gen_plm_dataset(sc)
    assert oracle.true_ate[0] == oracle.pointwise_cates.mean(axis=0)[0]
    x = table.column("x1")
    assert np.allclose(oracle.pointwise_cates[:, 0], 1.0 + 2.0 * x)
    assert oracle.true_ate[0] == pytest.approx(1.0, abs=5 * 2.0 / np.sqrt(5000))


def test_oracle_self_consistency_at_scale():
    sc = PlmScenario(n=100_000, effect_intercept=1.0, effect_slopes=(0.8,), seed=8)
    _, oracle = gen_plm_dataset(sc)
    assert abs(oracle.true_ate[0] - 1.0) < 0.02


def test_discrete_scenario_structure():
    levels = tuple(NDRT_LEVELS)
    effects = (0.0, 2.0, 5.0, 9.0, 7.0, 4.0, 8.5)
    sc = PlmScenario(n=2000, kind="discrete", levels=levels,
                     level_effects=effects, seed=9)
    table, oracle = gen_plm_dataset(sc)
    assert table.categorical_levels["treatment"] == list(levels)
    assert set(table.labels("treatment")) <= set(levels)
    assert oracle.true_ate.tolist() == list(effects[1:])
    assert oracle.pointwise_cates.shape == (2000, 6)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        PlmScenario(n=0)
    with pytest.raises(ValidationError):
        PlmScenario(n=10, kind="discrete", levels=("a",), level_effects=(0.0,))
    with pytest.raises(ValidationError, match="baseline"):
        PlmScenario(n=10, kind="discrete", levels=("a", "b"), level_effects=(1.0, 2.0))
    with pytest.raises(ValidationError, match="at most one slope"):
        PlmScenario(n=10, effect_slopes=(1.0, 2.0))


@pytest.mark.parametrize("field, value", [
    ("effect_intercept", float("nan")),
    ("effect_slopes", (float("inf"),)),
    ("gamma", float("inf")),
    ("delta", float("-inf")),
])
def test_non_finite_scenario_numbers_rejected(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        PlmScenario(n=10, **{field: value})


def test_non_finite_level_effect_rejected():
    with pytest.raises(ValidationError, match="level_effects must be finite"):
        PlmScenario(n=10, kind="discrete", levels=("a", "b"),
                    level_effects=(0.0, float("nan")))


# ---------------------------------------------------------------------------
# schedule


def test_latin_square_property():
    labels = [f"c{i}" for i in range(21)]
    square = latin_square(labels, seed=3)
    for row in square:
        assert sorted(row) == sorted(labels)
    for j in range(21):
        assert sorted(row[j] for row in square) == sorted(labels)


def test_42_participants_use_each_order_twice():
    labels = expand_conditions(NDRT_LEVELS, 3)
    assert len(labels) == 21
    schedule = gen_experiment_schedule(42, labels, seed=4)
    assert len(schedule) == 42
    seen = {}
    for row in schedule:
        key = tuple(row)
        seen[key] = seen.get(key, 0) + 1
    assert all(v == 2 for v in seen.values())
    assert len(seen) == 21


def test_position_balance():
    labels = expand_conditions(NDRT_LEVELS, 3)
    schedule = gen_experiment_schedule(42, labels, seed=5)
    for pos in range(21):
        at_pos = [row[pos] for row in schedule]
        counts = {lab: at_pos.count(lab) for lab in labels}
        assert all(v == 2 for v in counts.values())


def test_expanded_labels_recover_conditions():
    labels = expand_conditions(("Base", "NB0"), 2)
    assert labels == ["Base#1", "Base#2", "NB0#1", "NB0#2"]
    assert drive_label_condition("NB0#2") == "NB0"


def test_empty_conditions_rejected():
    with pytest.raises(ValidationError):
        latin_square([], seed=0)


# ---------------------------------------------------------------------------
# signal bundles


def test_sixty_bpm_annotation_count():
    bundle = gen_synthetic_signals(SignalProfile(hr_bpm=60.0), 60.0)
    assert len(bundle.truth.r_peak_times) == 60
    assert bundle.ecg.sample_rate == 100.0
    assert len(bundle.ecg.samples) == 6000


def test_mains_interference_leaves_truth_unchanged():
    clean = gen_synthetic_signals(SignalProfile(hr_bpm=60.0), 30.0)
    noisy = gen_synthetic_signals(
        SignalProfile(hr_bpm=60.0, mains_hz=50.0, mains_amplitude=0.2), 30.0
    )
    assert np.array_equal(clean.truth.r_peak_times, noisy.truth.r_peak_times)
    assert not np.array_equal(clean.ecg.samples, noisy.ecg.samples)


def test_scripted_scr_events_annotated():
    profile = SignalProfile(scr_events=((5.0, 0.5), (20.0, 0.3), (40.0, 0.7)))
    bundle = gen_synthetic_signals(profile, 60.0)
    assert bundle.truth.scr_events == [(5.0, 0.5), (20.0, 0.3), (40.0, 0.7)]


def test_late_scr_onset_does_not_overflow():
    # a response 500 s into a drive used to evaluate exp(-u / 0.4) at
    # u = -500 on the samples before its onset, which overflows
    with np.errstate(over="raise"):
        bundle = gen_synthetic_signals(SignalProfile(scr_events=((500.0, 0.5),)), 600.0)
        shape = _scr_shape(np.arange(60000) / 100.0 - 500.0)
    u = np.arange(60000) / 100.0 - 500.0
    with np.errstate(over="ignore", invalid="ignore"):
        # the formula without the clamp
        h = np.where(u >= 0, np.exp(-u / _SCR_DECAY_TAU) - np.exp(-u / _SCR_RISE_TAU), 0.0)
    tau_r, tau_d = _SCR_RISE_TAU, _SCR_DECAY_TAU
    u_peak = np.log(tau_d / tau_r) * tau_r * tau_d / (tau_d - tau_r)
    old = h / (np.exp(-u_peak / tau_d) - np.exp(-u_peak / tau_r))
    assert shape[u >= 0].tobytes() == old[u >= 0].tobytes()
    assert not shape[u < 0].any()
    assert np.isfinite(bundle.eda.samples).all()


def test_gaze_script_events():
    profile = SignalProfile(gaze_steps=(
        GazeStep("fixation", 1.0),
        GazeStep("saccade", 0.05, move_deg=4.0),
        GazeStep("fixation", 1.0),
    ))
    bundle = gen_synthetic_signals(profile, 2.05)
    kinds = [e.kind for e in bundle.truth.gaze_events]
    assert kinds == ["fixation", "saccade", "fixation"]
    assert bundle.truth.gaze_events[1].amplitude_deg == 4.0


def test_bad_duration_rejected():
    with pytest.raises(ValidationError):
        gen_synthetic_signals(SignalProfile(), 0.0)


def _script(*durations):
    return SignalProfile(gaze_steps=tuple(
        GazeStep("saccade" if i % 2 else "fixation", d, move_deg=4.0)
        for i, d in enumerate(durations)
    ))


@pytest.mark.parametrize("durations, match", [
    ((1.0, 0.0, 1.0), "gaze step 1 .saccade. lasts 0.0 s"),
    ((1.0, 0.05, -20.05), "gaze step 2 .fixation. lasts -20.05 s"),
    ((float("nan"),), "gaze step 0 .fixation. lasts nan s"),
    ((30.0, 0.05, 0.5), "gaze script lasts 30.55 s, past the 10 s recording"),
])
def test_gaze_script_must_fit_the_recording(durations, match):
    with pytest.raises(ValidationError, match=match):
        gen_synthetic_signals(_script(*durations), 10.0)


@pytest.mark.parametrize("events, match", [
    (((float("nan"), 1.0),), "SCR event 0 has onset nan s and amplitude 1.0"),
    (((20.0, float("inf")),), "SCR event 0 has onset 20.0 s and amplitude inf"),
    (((90.0, 1.0),), "SCR event 0 starts at 90.0 s, at or past the 60 s recording"),
    (((5.0, 0.5), (60.0, 0.5)), "SCR event 1 starts at 60.0 s"),
])
def test_scr_events_must_be_finite_and_inside_the_recording(events, match):
    with pytest.raises(ValidationError, match=match):
        gen_synthetic_signals(SignalProfile(scr_events=events), 60.0)


def test_gaze_script_within_one_sample_of_the_recording():
    # at 60 Hz a script may end up to one sample (1/60 s) after the recording
    for total in (9.9, 10.0, 10.0 + 1e-9, 10.0 + 1.0 / 60.0):
        bundle = gen_synthetic_signals(_script(5.0, 0.05, total - 5.05), 10.0)
        assert bundle.truth.gaze_events[-1].end <= 10.0 + 1.5 / 60.0
    with pytest.raises(ValidationError, match="past the 10 s recording"):
        gen_synthetic_signals(_script(5.0, 0.05, 5.0), 10.0)


@pytest.mark.parametrize("duration", [float("inf"), float("nan")])
def test_non_finite_duration_rejected(duration):
    with pytest.raises(ValidationError, match="finite and positive"):
        gen_synthetic_signals(SignalProfile(), duration)


# ---------------------------------------------------------------------------
# study table


def test_study_dataset_shape_and_ranges():
    rows = gen_study_dataset(seed=1)
    assert len(rows) == 42 * 21
    participants = {r["Participant"] for r in rows}
    assert len(participants) == 42
    for r in rows[:50]:
        assert 1 <= r["Time"] <= 21
        assert r["NDRT"] in NDRT_LEVELS
        assert 1 <= r["KSS"] <= 10
        assert 1 <= r["NASA"] <= 20
        for s in SYMBOL_VARS:
            assert r[s] is not None


def test_study_dataset_missing_rows_counted():
    rows = gen_study_dataset(seed=2, missing_rows=62)
    n_missing = sum(
        1 for r in rows if any(r[s] is None for s in SYMBOL_VARS)
    )
    assert n_missing == 62


def test_study_dataset_deterministic():
    assert gen_study_dataset(seed=3) == gen_study_dataset(seed=3)
    assert gen_study_dataset(seed=3) != gen_study_dataset(seed=4)


@pytest.mark.parametrize("seed, missing_rows, sha256", [
    (0, 0, "b62e3ea21dab498e523350226486eb783bd7fd83e7a583d932116bbf00fcca9a"),
    (7, 62, "e74d509654607e439da611983028c34bdd51d358326e4fba7c759c3ddaf154ba"),
])
def test_study_rows_pinned(seed, missing_rows, sha256):
    # the rows every preset digest and golden file is computed from: a
    # change to the draw order or the rounding moves this hash
    rows = gen_study_dataset(seed=seed, missing_rows=missing_rows)
    payload = json.dumps(rows, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == sha256
