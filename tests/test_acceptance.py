"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The estimator criteria check recovery against
synthetic oracles whose ground truth is known by construction; table
criteria check byte-level layout against golden files.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

from drivedml.boosting import GbmParams
from drivedml.cate_tree import cate_tree_from_json, fit_cate_tree, render_tree
from drivedml.dml import (
    EffectEstimate,
    ModelSpec,
    contrast,
    crossfit_nuisance,
    fit_dml,
    make_folds,
)
from drivedml.report import (
    render_ate_table,
    render_coefficient_table,
    replay_manifest,
    run_presets,
)
from drivedml.signals import (
    TimeSeries,
    design_butterworth,
    detect_r_peaks,
    extract_resp,
    filtfilt,
    hrv_freq_domain,
    hrv_time_domain,
)
from drivedml.simulate import (
    PlmScenario,
    SignalProfile,
    expand_conditions,
    gen_experiment_schedule,
    gen_plm_dataset,
    gen_study_dataset,
    gen_synthetic_signals,
    write_study_csv,
)
from drivedml.study_data import NDRT_LEVELS, FeatureTable

GOLDEN = Path(__file__).parent / "golden"

NUISANCE = GbmParams(n_estimators=80, learning_rate=0.1, max_depth=3, min_leaf=20, seed=0)
LIGHT = GbmParams(n_estimators=40, learning_rate=0.15, max_depth=3, min_leaf=40, seed=0)


def _report(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"\nACCEPTANCE {number} PASS: {description}")

        return wrapped

    return decorator


def _continuous_spec(seed, k_folds=5, params=NUISANCE, name="m"):
    return ModelSpec(
        name=name, features=("x1",), outcomes=("outcome",),
        treatments=("treatment",), confounders=("w1",),
        treatment_kind="continuous", k_folds=k_folds, seed=seed,
        outcome_params=params, treatment_params=params,
    )


@_report(1, "debiasing: naive OLS biased >= 10 SE, DML covers; coverage in [88,98]/100")
def test_criterion_1_debiasing():
    t0 = time.time()
    covered = 0
    for s in range(100):
        scenario = PlmScenario(n=10000, effect_intercept=2.0,
                               gamma=1.0, delta=1.0, seed=1000 + s)
        table, oracle = gen_plm_dataset(scenario)
        if s == 0:
            assert abs(oracle.naive_estimate[0] - 2.0) >= 10 * oracle.naive_se[0]
        estimate = fit_dml(table, _continuous_spec(2000 + s)).ates[0]
        if s == 0:
            assert estimate.ci_low <= 2.0 <= estimate.ci_high
        covered += estimate.ci_low <= 2.0 <= estimate.ci_high
    elapsed = time.time() - t0
    assert 88 <= covered <= 98, f"coverage {covered}/100 outside [88, 98]"
    assert elapsed <= 600.0, f"runtime {elapsed:.0f}s exceeds 10 minutes"


@_report(2, "heterogeneity: theta(x)=1+2x recovered within 0.1; power >= 95; size <= 15")
def test_criterion_2_heterogeneity():
    scenario = PlmScenario(n=20000, effect_intercept=1.0, effect_slopes=(2.0,),
                           gamma=1.0, delta=1.0, seed=77)
    table, _ = gen_plm_dataset(scenario)
    result = fit_dml(table, _continuous_spec(177))
    raw = result.final.raw_coefficients()
    assert abs(raw[0, 0, 0] - 1.0) <= 0.1
    assert abs(raw[0, 0, 1] - 2.0) <= 0.1

    def slope_p(scenario_seed, model_seed, slopes):
        sc = PlmScenario(n=20000, effect_intercept=1.0, effect_slopes=slopes,
                         gamma=1.0, delta=1.0, seed=scenario_seed)
        tbl, _ = gen_plm_dataset(sc)
        res = fit_dml(tbl, _continuous_spec(model_seed, k_folds=2, params=LIGHT))
        return res.coefficients[0].p

    power = sum(slope_p(3000 + s, 4000 + s, (2.0,)) < 0.05 for s in range(100))
    assert power >= 95, f"slope significant in only {power}/100 seeds"
    size = sum(slope_p(5000 + s, 6000 + s, ()) < 0.05 for s in range(100))
    assert size <= 15, f"null slope significant in {size}/100 seeds"


@_report(3, "discrete treatment: all 6 level ATEs and 21 contrasts covered; antisymmetry exact")
def test_criterion_3_discrete_treatment():
    levels = tuple(NDRT_LEVELS)
    effects = (0.0, 2.0, 5.0, 9.0, 7.0, 4.0, 8.5)
    scenario = PlmScenario(n=10000, kind="discrete", levels=levels,
                           level_effects=effects, gamma=0.6, delta=1.0, seed=20)
    table, oracle = gen_plm_dataset(scenario)
    spec = ModelSpec(
        name="discrete", features=("x1",), outcomes=("outcome",),
        treatments=("treatment",), confounders=("w1",),
        treatment_kind="discrete", baseline="Base", levels=levels,
        k_folds=5, seed=120,
        treatment_params=GbmParams(n_estimators=150, learning_rate=0.3,
                                   max_depth=1, min_leaf=100, seed=3),
        outcome_params=GbmParams(n_estimators=200, learning_rate=0.1,
                                 max_depth=3, min_leaf=20, seed=4),
    )
    result = fit_dml(table, spec)
    for estimate, truth in zip(result.ates, oracle.true_ate):
        assert estimate.ci_low <= truth <= estimate.ci_high, estimate.treatment
    truth_map = dict(zip(levels, effects))
    assert len(result.contrasts) == 21
    for c in result.contrasts:
        truth = truth_map[c.t1] - truth_map[c.t0]
        assert c.ci_low <= truth <= c.ci_high, f"{c.t0}->{c.t1}"
    forward = contrast(result.final, result.feature_matrix, "NB0", "NB2")[0]
    backward = contrast(result.final, result.feature_matrix, "NB2", "NB0")[0]
    assert forward.estimation == -backward.estimation
    assert forward.se == backward.se


@_report(4, "cross-fitting integrity: no out-of-fold leakage; folds partition exactly")
def test_criterion_4_crossfit_integrity():
    rng = np.random.default_rng(13)
    n = 400
    w = rng.normal(size=n)
    values = np.column_stack([
        rng.normal(size=n), w, w + rng.normal(size=n),
        2.0 * w + rng.normal(size=n),
    ])
    table = FeatureTable(
        column_names=["x1", "w1", "treatment", "outcome"],
        values=values,
    )
    spec = _continuous_spec(31, params=LIGHT)
    fit = crossfit_nuisance(table, spec)
    folds = fit.fold_assignment
    for poisoned_fold in (0, 3):
        poisoned = FeatureTable(
            column_names=list(table.column_names),
            values=table.values.copy(),
        )
        mask = folds == poisoned_fold
        poisoned.values[mask, 3] += 1e6
        poisoned.values[mask, 2] -= 1e6
        refit = crossfit_nuisance(poisoned, spec)
        assert np.array_equal(fit.outcome_predictions[mask],
                              refit.outcome_predictions[mask])
        assert np.array_equal(fit.treatment_predictions[mask],
                              refit.treatment_predictions[mask])
        assert not np.array_equal(fit.outcome_predictions[~mask],
                                  refit.outcome_predictions[~mask])

    for n_rows, k in ((820, 5), (821, 5), (97, 4)):
        assignment = make_folds(n_rows, k, seed=7)
        sizes = np.bincount(assignment, minlength=k)
        assert sizes.sum() == n_rows
        assert sizes.max() - sizes.min() <= 1
    assert np.bincount(make_folds(820, 5, seed=7)).tolist() == [164] * 5


@_report(5, "signal features: HRV reference values, R peaks +-20 ms with mains, "
            "filter attenuation, RESP rate, HF localization; under 1 minute")
def test_criterion_5_signal_conformance():
    t0 = time.time()

    rr_s = np.array([0.800, 0.810, 0.790, 0.805])
    td = hrv_time_domain(np.concatenate(([0.0], np.cumsum(rr_s))))
    assert round(td["RMSSD"], 3) == 15.546
    assert round(td["SDNN"], 3) == 8.539
    assert round(td["HR"], 3) == 74.883

    clean = gen_synthetic_signals(SignalProfile(hr_bpm=60.0), 60.0)
    peaks = detect_r_peaks(clean.ecg)
    assert len(peaks) == 60
    assert np.abs(peaks - clean.truth.r_peak_times).max() <= 0.020 + 1e-9

    noisy = gen_synthetic_signals(
        SignalProfile(hr_bpm=60.0, mains_hz=50.0, mains_amplitude=0.2), 60.0
    )
    peaks = detect_r_peaks(noisy.ecg)
    assert len(peaks) == 60
    assert np.abs(peaks - noisy.truth.r_peak_times).max() <= 0.020 + 1e-9

    lowpass = design_butterworth("lowpass", 4, 5.0, 100.0)
    t = np.arange(2000) / 100.0
    tone = TimeSeries(np.sin(2 * np.pi * 49.9999 * t), 100.0)
    out = filtfilt(lowpass, tone)
    mid = slice(400, 1600)
    attenuation_db = -20 * np.log10(
        np.sqrt(np.mean(out.samples[mid] ** 2) / np.mean(tone.samples[mid] ** 2))
    )
    assert attenuation_db >= 60.0

    resp = gen_synthetic_signals(SignalProfile(breath_hz=0.25), 120.0)
    feats = extract_resp(resp.resp)
    assert feats["RR"] == pytest.approx(15.0, abs=1e-3)

    peaks = [0.0]
    while peaks[-1] < 300.0:
        peaks.append(peaks[-1] + 0.8 + 0.020 * np.sin(2 * np.pi * 0.25 * peaks[-1]))
    fd = hrv_freq_domain(np.asarray(peaks))
    assert fd["HF"] / (fd["LF"] + fd["HF"]) >= 0.90

    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"signal criterion took {elapsed:.1f}s"


@_report(6, "heterogeneity tree: step split within 0.05; root mean exact; round trips lossless")
def test_criterion_6_cate_tree():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(1000, 1))
    cates = np.where(x[:, 0] < 0, 0.0, 3.0).reshape(-1, 1)
    tree = fit_cate_tree(x, cates, max_depth=1, min_leaf=10,
                         feature_names=["x1"])
    assert abs(tree.root.threshold) <= 0.05
    left, right = tree.nodes[tree.root.left], tree.nodes[tree.root.right]
    assert abs(left.mean[0] - 0.0) <= 0.05
    assert abs(right.mean[0] - 3.0) <= 0.05
    assert np.array_equal(tree.root.mean, cates.mean(axis=0))

    text = render_tree(tree, "json")
    clone = cate_tree_from_json(text)
    assert render_tree(clone, "json") == text
    assert render_tree(clone, "dot") == render_tree(tree, "dot")


@_report(7, "table conformance: injected rows reproduce the reporting layout byte-for-byte")
def test_criterion_7_table_conformance():
    coef_row = EffectEstimate(
        kind="coefficient", outcome="NASA", treatment="Time",
        estimation=0.007, se=0.003, z=2.517, p=0.01,
        ci_low=0.002, ci_high=0.011, feature="Trust", model_name="a",
    )
    text, _ = render_coefficient_table([coef_row])
    assert text.encode() == (GOLDEN / "table3_row.txt").read_bytes()

    ate_row = EffectEstimate(
        kind="contrast", outcome="NASA", treatment="Base->NB0",
        estimation=2.150, se=0.389, z=5.519, p=1e-5,
        ci_low=1.509, ci_high=2.790, t0="Base", t1="NB0", model_name="b",
    )
    text, _ = render_ate_table([ate_row])
    assert text.encode() == (GOLDEN / "table4_row.txt").read_bytes()


@_report(8, "reproducibility: manifest replay bit-exact; different seeds differ")
def test_criterion_8_reproducibility(tmp_path):
    rows = gen_study_dataset(seed=9, n_participants=12)
    study = tmp_path / "study.csv"
    write_study_csv(rows, study)
    small = GbmParams(n_estimators=15, max_depth=2, seed=0)
    first = run_presets(study, ["c"], tmp_path / "one", seed=4,
                        outcome_params=small, treatment_params=small)
    replayed = replay_manifest(tmp_path / "one" / "manifest.json", tmp_path / "two")
    originals = [e.to_jsonable() for e in first.model("c").estimates]
    replays = [e.to_jsonable() for e in replayed.model("c").estimates]
    assert originals == replays
    assert (tmp_path / "one" / "model_c" / "coefficients_full.csv").read_bytes() == (
        tmp_path / "two" / "model_c" / "coefficients_full.csv"
    ).read_bytes()

    other = run_presets(study, ["c"], tmp_path / "three", seed=5,
                        outcome_params=small, treatment_params=small)
    assert (other.model("c").estimates[0].estimation
            != first.model("c").estimates[0].estimation)


@_report(9, "experiment schedule: 21x21 Latin square; 42 participants balanced")
def test_criterion_9_schedule():
    labels = expand_conditions(NDRT_LEVELS, 3)
    assert len(labels) == 21
    schedule = gen_experiment_schedule(42, labels, seed=2)
    assert len(schedule) == 42
    square_rows = {tuple(row) for row in schedule}
    assert len(square_rows) == 21
    counts = {}
    for row in schedule:
        assert sorted(row) == sorted(labels)
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    assert all(v == 2 for v in counts.values())
    for pos in range(21):
        column = [row[pos] for row in schedule]
        assert all(column.count(lab) == 2 for lab in labels)
