import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivedml.boosting import GbmParams, fit_gbm, fit_gbm_classifier
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


@pytest.mark.parametrize("overrides, message", [
    (dict(treatment_kind="discrete", baseline="a", levels=("a", "b", "b", "c")),
     r"more than once: \['b'\]"),
    (dict(treatment_kind="discrete", baseline="a", levels=("a", "a", "c", "c")),
     r"more than once: \['a', 'c'\]"),
    (dict(baseline="Base"), "continuous treatment takes no baseline$"),
    (dict(levels=("a", "b")), "continuous treatment takes no levels$"),
    (dict(baseline="a", levels=("a", "b")), "continuous treatment takes no baseline or levels"),
])
def test_spec_checks_its_levels(overrides, message):
    with pytest.raises(ValidationError, match=message):
        _spec(**overrides)


def test_spec_components_label_the_final_stage():
    assert _spec(treatments=("t1", "t2")).components == ("t1", "t2")
    spec = _spec(treatment_kind="discrete", baseline="b", levels=("c", "b", "a"))
    assert spec.components == ("c", "a")


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


_DISCRETE = dict(treatment_kind="discrete", baseline="a", levels=("a", "b", "c"))


def _table_where_one_fold_holds_level_c(fold):
    """60 rows where level c sits only in ``fold`` of the discrete spec's
    folds, so that fold's training rows miss it."""
    n = 60
    folds = make_folds(n, 5, _spec(**_DISCRETE).seed)
    labels = np.where(folds == fold, "c", np.where(np.arange(n) % 2 == 0, "a", "b"))
    levels = ["a", "b", "c"]
    rng = np.random.default_rng(2)
    idx = np.array([levels.index(v) for v in labels], dtype=float)
    return FeatureTable(
        column_names=["x1", "w1", "treatment", "outcome"],
        values=np.column_stack([rng.normal(size=n), rng.normal(size=n), idx,
                                rng.normal(size=n)]),
        categorical_levels={"treatment": levels},
    )


def test_missing_level_in_training_fold_raises():
    with pytest.raises(StratificationError, match="fold"):
        crossfit_nuisance(_table_where_one_fold_holds_level_c(0), _spec(**_DISCRETE))


def test_missing_level_fails_before_any_fit(monkeypatch):
    import drivedml.dml as dml

    calls = []
    for name in ("fit_gbm", "fit_gbm_classifier"):
        def counted(*args, _fit=getattr(dml, name), **kwargs):
            calls.append(_fit.__name__)
            return _fit(*args, **kwargs)
        monkeypatch.setattr(dml, name, counted)
    # folds 0 and 1 see every level; fold 2 is the first that does not
    table = _table_where_one_fold_holds_level_c(2)
    with pytest.raises(StratificationError,
                       match=r"^fold 2: training data misses treatment levels \['c'\]$"):
        crossfit_nuisance(table, _spec(**_DISCRETE))
    assert calls == []


def test_one_gbm_per_fold_and_block(monkeypatch):
    import drivedml.dml as dml
    from drivedml.presets import build_preset
    from drivedml.simulate import gen_study_dataset
    from drivedml.study_data import assemble_feature_table

    calls = []

    def counted(X, y, params):
        calls.append(np.shape(y))
        return fit_gbm(X, y, params)

    monkeypatch.setattr(dml, "fit_gbm", counted)
    small = GbmParams(n_estimators=2)
    # preset g: 17 symbol outcomes and NASA, a continuous treatment
    spec = build_preset("g", seed=1, outcome_params=small, treatment_params=small)
    table = assemble_feature_table(gen_study_dataset(seed=5, n_participants=8), spec)
    crossfit_nuisance(table, spec)
    n_out, n_treat = len(spec.outcomes), len(spec.treatments)
    assert (n_out, n_treat) == (17, 1)
    assert len(calls) == 2 * spec.k_folds
    assert [shape[1] for shape in calls] == [n_out, n_treat] * spec.k_folds


def test_unknown_variable_in_spec():
    with pytest.raises(ValidationError, match="nope"):
        crossfit_nuisance(_toy_table(), _spec(features=("nope",)))


@pytest.mark.parametrize("overrides, message", [
    (dict(features=("group",)), "feature 'group' is a categorical column"),
    (dict(outcomes=("group",)), "outcome 'group' is a categorical column"),
    (dict(treatments=("group",)), "continuous treatment 'group' is a categorical column"),
    (dict(treatment_kind="discrete", baseline="lo", levels=("lo", "hi")),
     "discrete treatment 'treatment' is not a categorical column"),
], ids=["feature", "outcome", "continuous-treatment", "discrete-treatment"])
def test_fit_dml_rejects_a_categorical_column_in_a_numeric_role(overrides, message):
    toy = _toy_table()
    table = FeatureTable(
        column_names=[*toy.column_names, "group"],
        values=np.column_stack([toy.values, toy.column("w1") > 0]),
        categorical_levels={"group": ["lo", "hi"]},
    )
    with pytest.raises(ValidationError, match=message):
        fit_dml(table, _spec(**overrides))


# ---------------------------------------------------------------------------
# final stage


def _manual_fit(t_resid, y_resid, X, spec=None, labels=("t",)):
    fit = NuisanceFit(
        fold_assignment=np.zeros(len(t_resid), dtype=np.int64),
        outcome_predictions=np.zeros_like(y_resid),
        treatment_predictions=np.zeros_like(t_resid),
        outcome_residuals=y_resid,
        treatment_residuals=t_resid,
    )
    features = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return fit_final_stage(fit, X, spec or _spec(features=features, treatments=tuple(labels)))


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
    theta_at_zero = const_marginal_effect(model, [[0.0]])[0, 0, 0]
    assert theta_at_zero == pytest.approx(1.0, abs=0.05)
    assert coefficient_table(model)[0].estimation == pytest.approx(2.0, abs=0.05)


def test_final_stage_cov_is_the_hc0_sandwich():
    # preset b's shape: 6 treatment components x [1 + 5 features], 2 outcomes
    rng = np.random.default_rng(12)
    n, m, d = 820, 6, 5
    t = rng.normal(size=(n, m))
    x = rng.normal(size=(n, d))
    y = np.column_stack([
        t @ rng.normal(size=m) + (1.0 + np.abs(x[:, 0])) * rng.normal(size=n)
        for _ in range(2)
    ])
    spec = _spec(features=tuple(f"x{i + 1}" for i in range(d)), outcomes=("y1", "y2"),
                 treatments=tuple(f"t{c + 1}" for c in range(m)))
    model = _manual_fit(t, y, x, spec=spec)

    phi = np.hstack([np.ones((n, 1)), x - x.mean(axis=0)])
    rows = [np.kron(t[i], phi[i]) for i in range(n)]
    gram = sum(np.outer(r, r) for r in rows)
    for j in range(2):
        beta = np.linalg.solve(gram, sum(r * y[i, j] for i, r in enumerate(rows)))
        resid = [y[i, j] - r @ beta for i, r in enumerate(rows)]
        meat = sum(e * e * np.outer(r, r) for e, r in zip(resid, rows))
        sandwich = np.linalg.solve(gram, np.linalg.solve(gram, meat).T)
        np.testing.assert_allclose(model.coef[j].ravel(), beta, rtol=1e-9)
        np.testing.assert_allclose(model.cov[j], sandwich, rtol=1e-9)


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


def test_final_stage_rejects_width_mismatch_with_spec():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(50, 1))
    with pytest.raises(EstimationError, match="width 2 does not match the spec's 1"):
        _manual_fit(t, t.copy(), rng.normal(size=(50, 2)), spec=_spec())
    with pytest.raises(EstimationError, match="width 0 does not match the spec's 1"):
        _manual_fit(t, t.copy(), np.empty((50, 0)), spec=_spec())


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
    spec = ModelSpec(
        name="m", features=tuple(f"x{i+1}" for i in range(d)), outcomes=tuple(outcomes),
        treatments=tuple(components) if kind == "continuous" else ("treatment",),
        treatment_kind=kind, baseline=baseline, levels=tuple(levels) if levels else None,
    )
    assert spec.components == tuple(components)
    return FinalStageModel(
        spec=spec,
        coef=coef,
        cov=np.tile(np.eye(p) * 1e-4, (n_y, 1, 1)),
        x_mean=np.zeros(d) if x_mean is None else np.asarray(x_mean),
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
        coef, dim_x=2, outcomes=("y1", "y2"), components=("t1", "t2", "t3"),
    )
    rows = coefficient_table(model)
    assert len(rows) == 2 * 3 * 2


def _estimate_rows_reference(coef, cov, x_mean, feature_rows, outcomes, components,
                             baseline, levels):
    """ATE then pairwise contrast rows as (kind, outcome, treatment, estimation,
    se), with the arithmetic of the former separate ``ate`` and ``contrast``:
    a mean of one effect column, or of the difference of two, and a delta
    method vector built block by block."""
    X = np.atleast_2d(np.asarray(feature_rows, dtype=np.float64))
    phi = np.hstack([np.ones((len(X), 1)), X - x_mean])
    mean_phi = phi.mean(axis=0)
    n_components, width = coef.shape[1], coef.shape[2]
    effects = np.empty((len(phi), n_components, len(outcomes)))
    for j in range(len(outcomes)):
        effects[:, :, j] = phi @ coef[j].T

    def component_vector(component):
        c = np.zeros(n_components * width)
        c[component * width : (component + 1) * width] = mean_phi
        return c

    rows = []
    for j, outcome in enumerate(outcomes):
        for c, comp in enumerate(components):
            vec = component_vector(c)
            est = float(effects[:, c, j].mean())
            se = float(np.sqrt(vec @ cov[j] @ vec))
            rows.append(("ate", outcome, comp, est, se))
    for i, level_from in enumerate(levels):
        for level_to in levels[i + 1 :]:
            b_to = None if level_to == baseline else components.index(level_to)
            b_from = None if level_from == baseline else components.index(level_from)
            vec = np.zeros(n_components * width)
            if b_to is not None:
                vec += component_vector(b_to)
            if b_from is not None:
                vec -= component_vector(b_from)
            for j, outcome in enumerate(outcomes):
                to_eff = effects[:, b_to, j] if b_to is not None else 0.0
                from_eff = effects[:, b_from, j] if b_from is not None else 0.0
                est = float(np.mean(to_eff - from_eff))
                se = float(np.sqrt(vec @ cov[j] @ vec))
                rows.append(("contrast", outcome, f"{level_from}->{level_to}", est, se))
    return rows


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),   # levels
    st.integers(min_value=0, max_value=4),   # baseline position
    st.integers(min_value=1, max_value=3),   # outcomes
    st.integers(min_value=0, max_value=2),   # features
    st.integers(min_value=1, max_value=40),  # rows
    st.booleans(),                           # discrete
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_estimate_rows_match_reference(n_levels, base_at, n_y, d, n, discrete, seed):
    rng = np.random.default_rng(seed)
    levels = tuple(f"L{i}" for i in range(n_levels))
    if discrete:
        spec = ModelSpec(name="m", features=tuple(f"x{i}" for i in range(d)),
                         outcomes=tuple(f"y{j}" for j in range(n_y)), treatments=("t",),
                         treatment_kind="discrete", baseline=levels[base_at % n_levels],
                         levels=levels)
    else:
        spec = ModelSpec(name="m", features=tuple(f"x{i}" for i in range(d)),
                         outcomes=tuple(f"y{j}" for j in range(n_y)), treatments=levels[1:])
    m = len(spec.components)
    p = m * (d + 1)
    a = rng.normal(size=(n_y, p, p))
    model = FinalStageModel(
        spec=spec,
        coef=rng.normal(scale=rng.uniform(0.1, 10), size=(n_y, m, d + 1)),
        cov=a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(p),
        x_mean=rng.normal(size=d),
    )
    feature_rows = rng.normal(scale=3.0, size=(n, d))
    rows = ate(model, feature_rows)
    if discrete:
        rows += pairwise_contrasts(model, feature_rows)
    expected = _estimate_rows_reference(
        model.coef, model.cov, model.x_mean, feature_rows, spec.outcomes,
        list(spec.components), spec.baseline, spec.levels if discrete else (),
    )
    got = [(e.kind, e.outcome, e.treatment, e.estimation, e.se) for e in rows]
    assert [g[:3] for g in got] == [e[:3] for e in expected]
    for g, e in zip(got, expected):
        assert np.float64(g[3]).tobytes() == np.float64(e[3]).tobytes()
        assert np.float64(g[4]).tobytes() == np.float64(e[4]).tobytes()


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


def test_fits_do_not_depend_on_the_params_seed():
    """GbmParams.seed is recorded only: the fold shuffle is the one random
    draw of a model run, so a run's estimates and fold hash, and every
    boosted tree, are the same bits at any params seed."""
    rng = np.random.default_rng(11)
    n = 150
    levels = ["a", "b", "c"]
    table = FeatureTable(
        column_names=["x1", "w1", "t", "level", "outcome"],
        values=np.column_stack([rng.normal(size=(n, 3)), rng.integers(0, 3, n),
                                rng.normal(size=n)]),
        categorical_levels={"level": levels},
    )
    for roles in (dict(treatments=("t",)), dict(treatments=("level",), **_DISCRETE)):
        runs = []
        for seed in (0, 12345):
            params = GbmParams(n_estimators=10, seed=seed)
            runs.append(fit_dml(table, _spec(outcome_params=params, treatment_params=params,
                                             **roles)))
        first, second = runs
        assert [repr(e.to_jsonable()) for e in first.all_estimates()] == [
            repr(e.to_jsonable()) for e in second.all_estimates()
        ]
        assert first.fold_hash == second.fold_hash

    X = table.values[:, :3]
    labels = np.asarray(levels)[table.values[:, 3].astype(int)]
    for fit, target in ((fit_gbm, table.values[:, 4]), (fit_gbm_classifier, labels)):
        first, second = (fit(X, target, GbmParams(n_estimators=10, seed=seed))
                         for seed in (0, 12345))
        for round_a, round_b in zip(first.trees, second.trees, strict=True):
            for a, b in zip(round_a, round_b, strict=True):
                for name in ("feature", "threshold", "left", "right", "value"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_residual_export_for_audit(tmp_path, plm_run):
    import csv

    from drivedml.report import export_residuals_csv

    table, oracle, spec, result = plm_run
    path = tmp_path / "resid.csv"
    export_residuals_csv(result, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == table.n_rows
    got = np.array([float(r["resid_y:outcome"]) for r in rows])
    assert np.array_equal(got, result.nuisance.outcome_residuals[:, 0])
    assert {int(r["fold"]) for r in rows} == set(range(5))
