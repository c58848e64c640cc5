import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drivedml.boosting import GbmParams
from drivedml.dml import (
    CI_Z,
    FinalStageModel,
    ModelSpec,
    NuisanceFit,
    ate,
    coefficient_table,
    const_marginal_effect,
    contrast,
    crossfit_nuisance,
    fit_dml,
    fit_final_stage,
    make_estimate,
    make_folds,
    pairwise_contrasts,
)
from drivedml.errors import EstimationError, StratificationError, ValidationError
from drivedml.simulate import PlmScenario, gen_plm_dataset
from drivedml.study_data import FeatureTable

FAST = GbmParams(n_estimators=40, seed=1)


def _spec(**overrides):
    base = dict(
        name="m", features=("x1",), outcomes=("outcome",), treatments=("treatment",),
        confounders=("w1",), treatment_kind="continuous", k_folds=5, seed=3,
        outcome_params=FAST, treatment_params=FAST,
    )
    base.update(overrides)
    return ModelSpec(**base)


# ---------------------------------------------------------------------------
# folds


def test_folds_partition_exactly():
    f = make_folds(10, 5, seed=0)
    assert sorted(np.bincount(f).tolist()) == [2, 2, 2, 2, 2]
    assert set(f.tolist()) == {0, 1, 2, 3, 4}


def test_folds_deterministic_per_seed():
    assert np.array_equal(make_folds(101, 5, seed=9), make_folds(101, 5, seed=9))
    assert not np.array_equal(make_folds(101, 5, seed=9), make_folds(101, 5, seed=10))


def test_820_rows_split_into_equal_fifths():
    sizes = np.bincount(make_folds(820, 5, seed=1))
    assert sizes.tolist() == [164, 164, 164, 164, 164]


def test_folds_reject_tiny_n():
    with pytest.raises(EstimationError):
        make_folds(9, 5, seed=0)


@given(st.integers(min_value=10, max_value=400), st.integers(min_value=2, max_value=5))
def test_fold_sizes_differ_by_at_most_one(n, k):
    if n < 2 * k:
        return
    sizes = np.bincount(make_folds(n, k, seed=4), minlength=k)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1


# ---------------------------------------------------------------------------
# spec validation


def test_spec_requires_roles():
    with pytest.raises(ValidationError):
        _spec(outcomes=())
    with pytest.raises(ValidationError):
        _spec(treatments=())
    with pytest.raises(ValidationError, match="baseline"):
        _spec(treatment_kind="discrete", baseline=None, levels=None)
    with pytest.raises(ValidationError, match="more than one role"):
        _spec(features=("treatment",))


@pytest.mark.parametrize("overrides, repeated", [
    (dict(outcomes=("w1",)), "w1"),  # an outcome that is also a confounder
    (dict(outcomes=("x1",)), "x1"),  # an outcome that is also a feature
    (dict(treatments=("w1",)), "w1"),  # a treatment that is also a confounder
    (dict(outcomes=("outcome", "outcome")), "outcome"),  # one outcome twice
])
def test_spec_rejects_variable_named_twice(overrides, repeated):
    with pytest.raises(ValidationError, match=f"more than one role.*'{repeated}'"):
        _spec(**overrides)


def test_spec_json_round_trip():
    spec = _spec(treatment_kind="discrete", baseline="a", levels=("a", "b", "c"))
    clone = ModelSpec.from_json(spec.to_json())
    assert clone == spec


# ---------------------------------------------------------------------------
# cross-fitting


def _toy_table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    w = rng.normal(size=n)
    t = w + rng.normal(size=n)
    y = 2.0 * t + w + rng.normal(size=n)
    return FeatureTable(
        column_names=["x1", "w1", "treatment", "outcome"],
        values=np.column_stack([x, w, t, y]),
    )


def test_zero_outcome_gives_zero_residuals():
    table = _toy_table()
    table.values[:, 3] = 0.0
    fit = crossfit_nuisance(table, _spec())
    assert np.abs(fit.outcome_predictions).max() < 1e-9
    assert np.abs(fit.outcome_residuals).max() < 1e-9


def test_confounder_explains_outcome():
    rng = np.random.default_rng(1)
    n = 5000
    w = rng.normal(size=n)
    y = 3.0 * w + rng.normal(scale=0.05, size=n)
    table = FeatureTable(
        column_names=["x1", "w1", "treatment", "outcome"],
        values=np.column_stack([rng.normal(size=n), w, rng.normal(size=n), y]),
    )
    fit = crossfit_nuisance(table, _spec())
    ratio = fit.outcome_residuals.var() / y.var()
    assert ratio < 0.05


def test_fold_poisoning_does_not_leak():
    table = _toy_table(300)
    spec = _spec()
    fit = crossfit_nuisance(table, spec)
    folds = fit.fold_assignment
    poisoned = FeatureTable(
        column_names=list(table.column_names),
        values=table.values.copy(),
    )
    poisoned.values[folds == 0, 3] += 1e3
    refit = crossfit_nuisance(poisoned, spec)
    assert np.array_equal(
        fit.outcome_predictions[folds == 0], refit.outcome_predictions[folds == 0]
    )
    assert not np.array_equal(
        fit.outcome_predictions[folds != 0], refit.outcome_predictions[folds != 0]
    )


def test_missing_level_in_training_fold_raises():
    spec = _spec(treatment_kind="discrete", baseline="a", levels=("a", "b", "c"))
    n = 60
    folds = make_folds(n, 5, spec.seed)
    labels = np.where(folds == 0, "c", np.where(np.arange(n) % 2 == 0, "a", "b"))
    levels = ["a", "b", "c"]
    rng = np.random.default_rng(2)
    idx = np.array([levels.index(v) for v in labels], dtype=float)
    table = FeatureTable(
        column_names=["x1", "w1", "treatment", "outcome"],
        values=np.column_stack([rng.normal(size=n), rng.normal(size=n), idx,
                                rng.normal(size=n)]),
        categorical_levels={"treatment": levels},
    )
    with pytest.raises(StratificationError, match="fold"):
        crossfit_nuisance(table, spec)


def test_unknown_variable_in_spec():
    with pytest.raises(ValidationError, match="nope"):
        crossfit_nuisance(_toy_table(), _spec(features=("nope",)))


# ---------------------------------------------------------------------------
# final stage


def _manual_fit(t_resid, y_resid, X, spec=None, labels=("t",)):
    fit = NuisanceFit(
        fold_assignment=np.zeros(len(t_resid), dtype=np.int64),
        outcome_labels=["outcome"],
        component_labels=list(labels),
        outcome_predictions=np.zeros_like(y_resid),
        treatment_predictions=np.zeros_like(t_resid),
        outcome_residuals=y_resid,
        treatment_residuals=t_resid,
    )
    return fit_final_stage(fit, X, spec or _spec(), feature_names=None)


def test_exact_linear_relation_recovered():
    rng = np.random.default_rng(3)
    t = rng.normal(size=500).reshape(-1, 1)
    y = 2.0 * t
    model = _manual_fit(t, y, np.empty((500, 0)))
    assert model.coef[0, 0, 0] == pytest.approx(2.0, abs=1e-9)
    effects = const_marginal_effect(model, np.empty((500, 0)))
    assert np.allclose(effects, 2.0, atol=1e-9)


def test_final_stage_recovers_heterogeneous_map():
    rng = np.random.default_rng(4)
    n = 20000
    x = rng.normal(size=(n, 1))
    t = rng.normal(size=(n, 1))
    y = (1.0 + 2.0 * x) * t + rng.normal(scale=0.5, size=(n, 1))
    model = _manual_fit(t, y, x)
    raw = model.raw_coefficients()
    assert raw[0, 0, 0] == pytest.approx(1.0, abs=0.05)
    assert raw[0, 0, 1] == pytest.approx(2.0, abs=0.05)


def test_rank_deficiency_names_columns():
    rng = np.random.default_rng(5)
    n = 50
    t = rng.normal(size=(n, 1))
    y = t.copy()
    x = np.repeat(rng.normal(size=(n, 1)), 2, axis=1)  # duplicated feature
    with pytest.raises(EstimationError, match="collinear"):
        _manual_fit(t, y, x)


def test_needs_enough_rows():
    # one design column requires strictly more than dim + 5 = 6 rows
    t = np.ones((6, 1))
    with pytest.raises(EstimationError, match="rows"):
        _manual_fit(t, t.copy(), np.empty((6, 0)))


# ---------------------------------------------------------------------------
# effects and inference


def _injected_model(coef, x_mean=None, dim_x=None, outcomes=("outcome",),
                    components=("t",), kind="continuous", baseline=None, levels=None):
    coef = np.asarray(coef, dtype=np.float64)
    if coef.ndim == 2:
        coef = coef[None, :, :]
    n_y, m, width = coef.shape
    d = width - 1 if dim_x is None else dim_x
    p = m * width
    return FinalStageModel(
        coef=coef,
        cov=np.tile(np.eye(p) * 1e-4, (n_y, 1, 1)),
        x_mean=np.zeros(d) if x_mean is None else np.asarray(x_mean),
        n=100,
        outcome_labels=list(outcomes),
        component_labels=list(components),
        feature_names=[f"x{i+1}" for i in range(d)],
        treatment_kind=kind,
        baseline=baseline,
        levels=levels,
    )


def test_constant_effect_pointwise_and_ate():
    model = _injected_model([[2.0, 0.0]])
    rows = np.linspace(-3, 3, 11).reshape(-1, 1)
    effects = const_marginal_effect(model, rows)
    assert np.all(effects == 2.0)
    est = ate(model, rows)[0]
    assert est.estimation == 2.0


def test_effect_at_point_is_linear_map():
    model = _injected_model([[1.0, 2.0]])
    effects = const_marginal_effect(model, np.array([[0.5]]))
    assert effects[0, 0, 0] == pytest.approx(2.0)


def test_ate_equals_mean_of_pointwise_exactly():
    rng = np.random.default_rng(6)
    model = _injected_model([[0.3, -1.7, 0.9]], dim_x=2)
    rows = rng.normal(size=(257, 2))
    effects = const_marginal_effect(model, rows)
    est = ate(model, rows)[0]
    assert est.estimation == effects[:, 0, 0].mean()


def test_ate_rejects_empty_rows():
    model = _injected_model([[2.0]], dim_x=0)
    with pytest.raises(EstimationError):
        ate(model, np.empty((0, 0)))


def test_contrast_antisymmetry_exact():
    model = _injected_model(
        [[2.0, 0.1], [5.0, -0.4]],
        components=("b", "c"), kind="discrete", baseline="a", levels=["a", "b", "c"],
    )
    rows = np.random.default_rng(7).normal(size=(100, 1))
    fwd = contrast(model, rows, "b", "c")[0]
    rev = contrast(model, rows, "c", "b")[0]
    assert fwd.estimation == -rev.estimation
    assert fwd.se == rev.se
    base_fwd = contrast(model, rows, "a", "b")[0]
    assert base_fwd.estimation == ate(model, rows)[0].estimation


def test_contrast_zero_for_identical_components():
    model = _injected_model(
        [[2.0, 0.5], [2.0, 0.5]],
        components=("b", "c"), kind="discrete", baseline="a", levels=["a", "b", "c"],
    )
    rows = np.random.default_rng(8).normal(size=(50, 1))
    est = contrast(model, rows, "b", "c")[0]
    assert est.estimation == pytest.approx(0.0, abs=1e-12)


def test_pairwise_contrast_count():
    model = _injected_model(
        [[1.0], [2.0], [3.0]], dim_x=0,
        components=("b", "c", "d"), kind="discrete",
        baseline="a", levels=["a", "b", "c", "d"],
    )
    rows = np.empty((10, 0))
    assert len(pairwise_contrasts(model, rows)) == 6  # C(4,2)


def test_contrasts_require_discrete_model():
    model = _injected_model([[2.0, 0.0]])
    with pytest.raises(EstimationError):
        pairwise_contrasts(model, np.zeros((5, 1)))


def test_coefficient_table_shape():
    coef = np.zeros((2, 3, 3))  # 2 outcomes, 3 components, 2 features + intercept
    model = _injected_model(
        coef[0], dim_x=2,
    )
    model.coef = coef
    model.cov = np.tile(np.eye(9) * 1e-4, (2, 1, 1))
    model.outcome_labels = ["y1", "y2"]
    model.component_labels = ["t1", "t2", "t3"]
    rows = coefficient_table(model)
    assert len(rows) == 2 * 3 * 2


@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=1e-6, max_value=10),
)
def test_estimate_invariants(estimation, se):
    e = make_estimate("ate", "y", "t", estimation, se)
    assert e.z == pytest.approx(estimation / se)
    assert e.ci_low == pytest.approx(estimation - CI_Z * se)
    assert e.ci_high == pytest.approx(estimation + CI_Z * se)
    assert 0.0 <= e.p <= 1.0
    assert e.p == pytest.approx(math.erfc(abs(e.z) / math.sqrt(2)))


def test_zero_se_estimate():
    e = make_estimate("ate", "y", "t", 1.5, 0.0)
    assert math.isinf(e.z) and e.p == 0.0
    e0 = make_estimate("ate", "y", "t", 0.0, 0.0)
    assert e0.z == 0.0 and e0.p == 1.0


# ---------------------------------------------------------------------------
# full-pipeline invariants


@pytest.fixture(scope="module")
def plm_run():
    scenario = PlmScenario(n=3000, effect_intercept=1.5, gamma=1.0, delta=1.0, seed=21)
    table, oracle = gen_plm_dataset(scenario)
    spec = _spec(seed=2)
    return table, oracle, spec, fit_dml(table, spec)


def test_plm_ate_recovery(plm_run):
    table, oracle, spec, result = plm_run
    est = result.ates[0]
    assert 1.3 <= est.estimation <= 1.7
    assert est.ci_low <= 1.5 <= est.ci_high


def test_treatment_scaling_equivariance(plm_run):
    table, oracle, spec, result = plm_run
    scaled = FeatureTable(
        column_names=list(table.column_names),
        values=table.values.copy(),
    )
    scaled.values[:, 2] *= 4.0
    res2 = fit_dml(scaled, spec)
    assert res2.ates[0].estimation * 4.0 == pytest.approx(
        result.ates[0].estimation, rel=1e-9
    )
    assert res2.ates[0].z == pytest.approx(result.ates[0].z, abs=1e-6)


def test_outcome_shift_invariance(plm_run):
    table, oracle, spec, result = plm_run
    shifted = FeatureTable(
        column_names=list(table.column_names),
        values=table.values.copy(),
    )
    shifted.values[:, 3] += 10.0
    res2 = fit_dml(shifted, spec)
    assert abs(res2.ates[0].estimation - result.ates[0].estimation) < 1e-9
    assert abs(res2.coefficients[0].estimation - result.coefficients[0].estimation) < 1e-9


def test_fold_count_robustness(plm_run):
    table, oracle, spec, result = plm_run
    res2 = fit_dml(table, _spec(seed=2, k_folds=2))
    a5, a2 = result.ates[0], res2.ates[0]
    assert abs(a5.estimation - a2.estimation) < 2 * max(a5.se, a2.se)


def test_bitwise_reproducibility(plm_run):
    table, oracle, spec, result = plm_run
    res2 = fit_dml(table, spec)
    for a, b in zip(result.all_estimates(), res2.all_estimates()):
        assert a == b
    assert result.fold_hash == res2.fold_hash


def test_residual_export_for_audit(tmp_path, plm_run):
    import csv

    from drivedml.dml import export_residuals_csv

    table, oracle, spec, result = plm_run
    path = tmp_path / "resid.csv"
    export_residuals_csv(result.nuisance, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == table.n_rows
    got = np.array([float(r["resid_y:outcome"]) for r in rows])
    assert np.array_equal(got, result.nuisance.outcome_residuals[:, 0])
    assert {int(r["fold"]) for r in rows} == set(range(5))
