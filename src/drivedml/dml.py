"""Double machine learning with K-fold cross-fitting.

Stage 1 residualizes the outcome and the treatment on features plus
confounders with gradient-boosted models, using out-of-fold predictions
so no observation is scored by a model that saw it. Each fold boosts
the outcome columns as one GBM, the continuous treatment columns as
another, and a discrete treatment with one classifier. Stage 2 is one
pooled OLS of outcome residuals on treatment residuals interacted with
the featurizer [1, x], giving a linear, interpretable effect model
theta(x) with a heteroskedasticity-consistent (HC0) covariance.

Multi-outcome specs fit independent final stages per outcome over the
same treatment residuals. Discrete treatments enter as one-hot residuals
with the baseline column dropped, so each component is the effect of one
level against the baseline.

The ``ModelSpec`` labels every result: its outcomes, its ``components``
(treatment variables, or non-baseline levels) and its features name the
final stage's rows and columns, which keep no copies of them. ATE and
level-contrast rows are one weighted average of theta(x) over the rows,
sum_c w_c theta_c(x), with w a unit vector or the difference of two.

The final stage's matrix products run on one BLAS thread through the
private ``_blas`` module, which ``signals`` shares.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._blas import _one_blas_thread
from .boosting import GbmParams, fit_gbm, fit_gbm_classifier
from .errors import EstimationError, StratificationError, ValidationError, checked_json
from .rng import Xorshift64Star, derive_seed
from .study_data import FeatureTable, _check_roles

# 97.5% normal quantile used for all confidence intervals
CI_Z = 1.95996

PROB_CLIP = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    """One analysis configuration: roles, treatment type, learners, seed."""

    name: str
    features: tuple = ()
    outcomes: tuple = ()
    treatments: tuple = ()
    confounders: tuple = ()
    treatment_kind: str = "continuous"
    baseline: str | None = None
    levels: tuple | None = None
    k_folds: int = 5
    outcome_params: GbmParams = field(default_factory=GbmParams)
    treatment_params: GbmParams = field(default_factory=GbmParams)
    seed: int = 0

    def __post_init__(self):
        if self.k_folds < 2:
            raise ValidationError("k_folds must be at least 2")
        if not self.outcomes:
            raise ValidationError("at least one outcome variable is required")
        if not self.treatments:
            raise ValidationError("a treatment variable group is required")
        if self.treatment_kind == "discrete":
            if len(self.treatments) != 1:
                raise ValidationError("discrete treatment takes exactly one variable")
            if not self.levels or self.baseline not in self.levels:
                raise ValidationError("discrete treatment needs levels and a baseline among them")
            repeated = sorted({lv for lv in self.levels if self.levels.count(lv) > 1})
            if repeated:
                raise ValidationError(f"treatment levels listed more than once: {repeated}")
        elif self.treatment_kind != "continuous":
            raise ValidationError(f"unknown treatment kind {self.treatment_kind!r}")
        else:
            keys = [k for k in ("baseline", "levels") if getattr(self, k) is not None]
            if keys:
                raise ValidationError(f"a continuous treatment takes no {' or '.join(keys)}")
        names = [*self.features, *self.confounders, *self.treatments, *self.outcomes]
        repeated = sorted({v for v in names if names.count(v) > 1})
        if repeated:
            raise ValidationError(f"variables in more than one role, or twice in one: {repeated}")

    @property
    def components(self) -> tuple:
        """The final stage's treatment components: the treatment variables,
        or the non-baseline levels in level order."""
        if self.treatment_kind == "discrete":
            return tuple(lv for lv in self.levels if lv != self.baseline)
        return self.treatments

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        """The spec in JSON ``text``, or in its parsed object."""
        d = checked_json(cls, text, required=(
            "name", "features", "outcomes", "treatments", "confounders",
            "outcome_params", "treatment_params",
        ))
        for key in ("features", "outcomes", "treatments", "confounders", "levels"):
            if d.get(key) is not None:
                if not all(isinstance(v, str) for v in d[key]):
                    raise ValidationError(f"key {key!r} must list strings, got {d[key]!r}")
                d[key] = tuple(d[key])
        for key in ("outcome_params", "treatment_params"):
            try:
                # specs stored before row subsampling was removed record
                # "subsample": 1.0, which fits as every tree does now
                sub = d[key].get("subsample", 1)
                if sub != 1 or isinstance(sub, bool):
                    raise ValidationError(
                        f"key 'subsample' is {sub!r}; row subsampling was removed, "
                        "so only a spec with subsample 1 can be replayed"
                    )
                d[key] = GbmParams(**checked_json(GbmParams, d[key], drop=("subsample",)))
            except ValidationError as exc:
                raise ValidationError(f"{key}: {exc}") from None
        return cls(**d)


def make_folds(n: int, k: int, seed: int) -> np.ndarray:
    """Seeded shuffle then contiguous blocks; sizes differ by at most one."""
    if n < 2 * k:
        raise EstimationError(f"need at least {2 * k} rows for {k} folds")
    order = np.arange(n)
    Xorshift64Star(derive_seed(seed, "folds")).shuffle(order)
    assignment = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    pos = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        assignment[order[pos : pos + size]] = fold
        pos += size
    return assignment


@dataclass
class NuisanceFit:
    """Cross-fitted stage-1 predictions and residuals."""

    fold_assignment: np.ndarray
    outcome_predictions: np.ndarray   # n x outcomes, out of fold
    treatment_predictions: np.ndarray  # n x spec.components (probabilities
                                       # reordered and baseline-dropped for discrete)
    outcome_residuals: np.ndarray
    treatment_residuals: np.ndarray


def _nuisance_matrix(table: FeatureTable, names) -> np.ndarray:
    """Numeric stage-1 design: reals as-is, categoricals one-hot per level."""
    cols = []
    for name in names:
        codes = table.column(name).reshape(-1, 1)
        if name in table.categorical_levels:
            # indicator of code k for k = 1..K-1; code 0 is the reference
            k = len(table.categorical_levels[name])
            cols.append((codes == np.arange(1, k)).astype(np.float64))
        else:
            cols.append(codes)
    if not cols:
        return np.empty((table.n_rows, 0))
    return np.hstack(cols)


def crossfit_nuisance(table: FeatureTable, spec: ModelSpec) -> NuisanceFit:
    """Fit per-fold outcome and treatment models, predict out of fold.

    For every fold k the models train on the complement of fold k, so
    each row's predictions come from models that never saw it. Each fold
    fits one GBM per block of continuous columns, the outcomes and the
    continuous treatments, whose columns are boosted side by side from
    one presort; a discrete treatment gets one classifier per fold.
    """
    for v in (*spec.features, *spec.confounders, *spec.treatments, *spec.outcomes):
        if v not in table.column_names:
            raise ValidationError(f"unknown variable {v!r} in spec {spec.name!r}")
    _check_roles(spec, table.categorical_levels)

    n = table.n_rows
    xw = _nuisance_matrix(table, (*spec.features, *spec.confounders))
    if xw.shape[1] == 0:
        raise ValidationError("nuisance stage needs at least one feature or confounder")
    folds = make_folds(n, spec.k_folds, spec.seed)

    # (targets, out-of-fold predictions, learner) per block of continuous
    # columns, each block boosted as one GBM per fold
    y_mat = np.column_stack([table.column(v) for v in spec.outcomes])
    y_hat = np.empty_like(y_mat)
    blocks = [(y_mat, y_hat, spec.outcome_params)]
    if spec.treatment_kind == "continuous":
        t_mat = np.column_stack([table.column(v) for v in spec.treatments])
        t_hat = np.empty_like(t_mat)
        blocks.append((t_mat, t_hat, spec.treatment_params))
    else:
        labels = np.asarray(table.labels(spec.treatments[0]), dtype=object)
        levels = list(spec.levels)
        unseen = next((v for v in labels if v not in levels), None)
        if unseen is not None:
            raise ValidationError(f"unseen category {unseen!r}")
        # one indicator per component; baseline rows are all zeros
        onehot = (labels[:, None] == np.asarray(spec.components, dtype=object)).astype(float)
        # every fold's classifier must see every level: check before any fit
        for fold in range(spec.k_folds):
            train_levels = set(labels[folds != fold].tolist())
            missing = [lv for lv in levels if lv not in train_levels]
            if missing:
                raise StratificationError(
                    f"fold {fold}: training data misses treatment levels {missing}"
                )
        probs_all = np.empty((n, len(levels)))

    for fold in range(spec.k_folds):
        test = folds == fold
        train = ~test
        for targets, predictions, params in blocks:
            model = fit_gbm(xw[train], targets[train], params)
            predictions[test] = model.predict(xw[test]).reshape(-1, targets.shape[1])

        if spec.treatment_kind == "discrete":
            model = fit_gbm_classifier(xw[train], labels[train], spec.treatment_params)
            raw = model.predict(xw[test])
            # reorder model's sorted classes into spec level order
            col_of = {lv: i for i, lv in enumerate(model.classes)}
            probs_all[test] = raw[:, [col_of[lv] for lv in levels]]

    if spec.treatment_kind == "continuous":
        t_resid = t_mat - t_hat
        t_pred = t_hat
    else:
        clipped = np.clip(probs_all, PROB_CLIP, 1.0 - PROB_CLIP)
        keep = [i for i, lv in enumerate(levels) if lv != spec.baseline]
        t_resid = onehot - clipped[:, keep]
        t_pred = clipped[:, keep]

    return NuisanceFit(
        fold_assignment=folds,
        outcome_predictions=y_hat,
        treatment_predictions=t_pred,
        outcome_residuals=y_mat - y_hat,
        treatment_residuals=t_resid,
    )


@dataclass
class FinalStageModel:
    """Pooled linear effect model theta(x) with robust covariance.

    ``coef`` holds, per outcome, one row per treatment component over the
    featurizer [1, x - x_mean]. ``cov`` is the HC0 sandwich covariance of
    the stacked coefficients (treatment-major ordering), per outcome.
    ``spec`` names the outcomes, components and features.
    """

    spec: ModelSpec
    coef: np.ndarray              # (outcomes, components, 1 + features)
    cov: np.ndarray               # (outcomes, P, P), P = components * (1 + features)
    x_mean: np.ndarray            # (features,)


def _featurize(model: FinalStageModel, feature_rows) -> np.ndarray:
    """The design rows [1, x - x_mean] of ``feature_rows``."""
    X = np.atleast_2d(np.asarray(feature_rows, dtype=np.float64))
    if X.shape[1] != len(model.x_mean):
        raise EstimationError(
            f"feature width {X.shape[1]} does not match model width {len(model.x_mean)}"
        )
    return np.hstack([np.ones((len(X), 1)), X - model.x_mean])


def fit_final_stage(
    fit: NuisanceFit, feature_rows: np.ndarray, spec: ModelSpec
) -> FinalStageModel:
    """OLS of outcome residuals on treatment residuals times [1, x - mean].

    One pooled regression over all cross-fitted rows per outcome; the
    covariance is the HC0 sandwich. Features are mean-centered so each
    component's intercept is its average effect at the sample mean.
    ``feature_rows`` holds one column per ``spec.features``. The matrix
    products run on one BLAS thread (see ``_blas._one_blas_thread``).
    """
    t_resid = fit.treatment_residuals
    y_resid = fit.outcome_residuals
    if not (np.isfinite(t_resid).all() and np.isfinite(y_resid).all()):
        raise EstimationError("non-finite residuals entering the final stage")

    X = np.atleast_2d(np.asarray(feature_rows, dtype=np.float64))
    if X.size == 0:
        X = np.empty((len(t_resid), 0))
    n, d = X.shape
    if n != len(t_resid):
        raise EstimationError("feature rows misaligned with residuals")
    if d != len(spec.features):
        raise EstimationError(
            f"feature width {d} does not match the spec's {len(spec.features)} features"
        )
    x_mean = X.mean(axis=0) if d else np.empty(0)
    phi = np.hstack([np.ones((n, 1)), X - x_mean])
    m = t_resid.shape[1]
    p = m * (d + 1)
    if n <= p + 5:
        raise EstimationError(f"need more than dim + 5 = {p + 5} rows, have {n}")

    design = (t_resid[:, :, None] * phi[:, None, :]).reshape(n, p)
    n_y = y_resid.shape[1]
    coef = np.empty((n_y, m, d + 1))
    cov = np.empty((n_y, p, p))
    with _one_blas_thread():
        gram = design.T @ design
        _check_rank(gram, [f"{c}*{f}" for c in spec.components
                           for f in ("intercept", *spec.features)])
        gram_inv = np.linalg.inv(gram)
        for j in range(n_y):
            beta = gram_inv @ (design.T @ y_resid[:, j])
            resid = y_resid[:, j] - design @ beta
            meat = (design * resid[:, None]).T @ (design * resid[:, None])
            sigma = gram_inv @ meat @ gram_inv
            cov[j] = 0.5 * (sigma + sigma.T)
            coef[j] = beta.reshape(m, d + 1)
    return FinalStageModel(spec=spec, coef=coef, cov=cov, x_mean=x_mean)


def _check_rank(gram: np.ndarray, col_labels) -> None:
    """Raise with the offending columns when the design is rank deficient."""
    p = gram.shape[0]
    eigvals = np.linalg.eigvalsh(gram)
    tol = max(eigvals.max(), 0.0) * p * np.finfo(float).eps
    if eigvals.min() > tol:
        return
    # greedy scan: a column is collinear if it adds no rank
    bad = []
    rank = 0
    for j in range(1, p + 1):
        r = np.linalg.matrix_rank(gram[:j, :j])
        if r == rank:
            bad.append(col_labels[j - 1])
        rank = r
    raise EstimationError(
        f"final-stage design is rank deficient; collinear columns: {bad or col_labels}"
    )


@dataclass
class EffectEstimate:
    """One inference row: estimate, robust SE, z, two-sided p, 95% CI."""

    kind: str                  # "ate" | "contrast" | "coefficient"
    outcome: str
    treatment: str             # component label (level or variable name)
    estimation: float
    se: float
    z: float
    p: float
    ci_low: float
    ci_high: float
    feature: str | None = None  # X variable, for coefficient rows
    t0: str | None = None       # contrast origin level
    t1: str | None = None       # contrast target level
    model_name: str = ""

    def to_jsonable(self) -> dict:
        # every field is a str, float or None, so no deep copy is needed
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _normal_p(z: float) -> float:
    if math.isinf(z):
        return 0.0
    return math.erfc(abs(z) / math.sqrt(2.0))


def make_estimate(
    kind: str,
    outcome: str,
    treatment: str,
    estimation: float,
    se: float,
    feature: str | None = None,
    t0: str | None = None,
    t1: str | None = None,
    model_name: str = "",
) -> EffectEstimate:
    """Assemble an estimate row with z, p and CI derived from (est, se)."""
    if se > 0:
        z = estimation / se
    else:
        z = 0.0 if estimation == 0 else math.copysign(math.inf, estimation)
    return EffectEstimate(
        kind=kind,
        outcome=outcome,
        treatment=treatment,
        estimation=float(estimation),
        se=float(se),
        z=float(z),
        p=float(_normal_p(z)),
        ci_low=float(estimation - CI_Z * se),
        ci_high=float(estimation + CI_Z * se),
        feature=feature,
        t0=t0,
        t1=t1,
        model_name=model_name,
    )


def const_marginal_effect(model: FinalStageModel, feature_rows) -> np.ndarray:
    """Pointwise effects theta(x_i): shape (rows, components, outcomes)."""
    phi = _featurize(model, feature_rows)
    out = np.empty((len(phi), model.coef.shape[1], len(model.coef)))
    for j, coef in enumerate(model.coef):
        out[:, :, j] = phi @ coef.T
    return out


def _averaged_effect(model: FinalStageModel, phi: np.ndarray, j: int, w: np.ndarray):
    """(estimate, SE) of the mean over the design rows ``phi`` of
    sum_c w_c theta_c(x) for outcome j; the SE is the delta method's."""
    if len(phi) == 0:
        raise EstimationError("no feature rows to average over")
    v = np.kron(w, phi.mean(axis=0))
    return float(np.mean((phi @ model.coef[j].T) @ w)), float(np.sqrt(v @ model.cov[j] @ v))


def ate(model: FinalStageModel, feature_rows) -> list:
    """Average treatment effect per (outcome, component).

    The estimate is the mean of the pointwise effects over the given
    rows; its SE comes from the delta method with the mean design row.
    """
    spec = model.spec
    phi = _featurize(model, feature_rows)
    unit = np.eye(len(spec.components))
    rows = []
    for j, outcome in enumerate(spec.outcomes):
        for c, comp in enumerate(spec.components):
            est, se = _averaged_effect(model, phi, j, unit[c])
            rows.append(make_estimate(
                "ate", outcome, comp, est, se,
                t0=spec.baseline, t1=comp, model_name=spec.name,
            ))
    return rows


def contrast(model: FinalStageModel, feature_rows, level_from: str, level_to: str) -> list:
    """Effect of switching treatment level_from -> level_to, per outcome.

    The baseline level acts as the zero component. Estimates are exactly
    antisymmetric in (level_from, level_to), with identical SEs.
    """
    spec = model.spec
    if spec.treatment_kind != "discrete":
        raise EstimationError("contrasts require a discrete treatment model")
    # one weight vector per level: a unit vector, or zeros for the baseline
    unit = np.eye(len(spec.components))
    weights = {spec.baseline: np.zeros(len(spec.components)), **dict(zip(spec.components, unit))}
    for level in (level_from, level_to):
        if level not in weights:
            raise ValidationError(f"unknown treatment level {level!r}")
    w = weights[level_to] - weights[level_from]
    phi = _featurize(model, feature_rows)
    rows = []
    for j, outcome in enumerate(spec.outcomes):
        est, se = _averaged_effect(model, phi, j, w)
        rows.append(make_estimate(
            "contrast", outcome, f"{level_from}->{level_to}", est, se,
            t0=level_from, t1=level_to, model_name=spec.name,
        ))
    return rows


def pairwise_contrasts(model: FinalStageModel, feature_rows) -> list:
    """All ordered level pairs (earlier -> later) in level order."""
    if model.spec.treatment_kind != "discrete":
        raise EstimationError("contrasts require a discrete treatment model")
    levels = model.spec.levels
    rows = []
    for i, lv_from in enumerate(levels):
        for lv_to in levels[i + 1 :]:
            rows.extend(contrast(model, feature_rows, lv_from, lv_to))
    return rows


def coefficient_table(model: FinalStageModel) -> list:
    """One estimate per non-intercept coefficient of theta(x).

    Slopes are identical in the centered and raw featurizations, so these
    are the raw-scale per-feature coefficients.
    """
    spec = model.spec
    width = len(spec.features) + 1
    rows = []
    for j, outcome in enumerate(spec.outcomes):
        for c, comp in enumerate(spec.components):
            for f, feat in enumerate(spec.features, start=1):
                pos = c * width + f
                est = float(model.coef[j, c, f])
                se = float(np.sqrt(model.cov[j][pos, pos]))
                rows.append(make_estimate(
                    "coefficient", outcome, comp, est, se,
                    feature=feat, model_name=spec.name,
                ))
    return rows


@dataclass
class DmlResult:
    """Everything produced by one model run."""

    spec: ModelSpec
    nuisance: NuisanceFit
    final: FinalStageModel
    ates: list
    contrasts: list
    coefficients: list
    feature_matrix: np.ndarray

    @property
    def fold_hash(self) -> str:
        return hashlib.sha256(self.nuisance.fold_assignment.tobytes()).hexdigest()

    def all_estimates(self) -> list:
        return [*self.ates, *self.contrasts, *self.coefficients]


def fit_dml(table: FeatureTable, spec: ModelSpec) -> DmlResult:
    """Full pipeline: cross-fit nuisances, fit the final stage, infer."""
    nuisance = crossfit_nuisance(table, spec)
    if spec.features:
        feature_matrix = np.column_stack([table.column(v) for v in spec.features])
    else:
        feature_matrix = np.empty((table.n_rows, 0))
    final = fit_final_stage(nuisance, feature_matrix, spec)
    ates = ate(final, feature_matrix)
    contrasts = (
        pairwise_contrasts(final, feature_matrix)
        if spec.treatment_kind == "discrete"
        else []
    )
    coefficients = coefficient_table(final)
    return DmlResult(
        spec=spec,
        nuisance=nuisance,
        final=final,
        ates=ates,
        contrasts=contrasts,
        coefficients=coefficients,
        feature_matrix=feature_matrix,
    )
