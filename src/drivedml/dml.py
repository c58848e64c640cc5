"""Double machine learning with K-fold cross-fitting.

Stage 1 residualizes the outcome and the treatment on features plus
confounders with gradient-boosted models, using out-of-fold predictions
so no observation is scored by a model that saw it. Stage 2 is one
pooled OLS of outcome residuals on treatment residuals interacted with
the featurizer [1, x], giving a linear, interpretable effect model
theta(x) with a heteroskedasticity-consistent (HC0) covariance.

Multi-outcome specs fit independent final stages per outcome over the
same treatment residuals. Discrete treatments enter as one-hot residuals
with the baseline column dropped, so each component is the effect of one
level against the baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_type_hints

import numpy as np

from .boosting import GbmParams, fit_gbm, fit_gbm_classifier
from .errors import EstimationError, StratificationError, ValidationError
from .rng import Xorshift64Star, derive_seed
from .study_data import FeatureTable, encode_treatment

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
        elif self.treatment_kind != "continuous":
            raise ValidationError(f"unknown treatment kind {self.treatment_kind!r}")
        names = [*self.features, *self.confounders, *self.treatments, *self.outcomes]
        repeated = sorted({v for v in names if names.count(v) > 1})
        if repeated:
            raise ValidationError(f"variables in more than one role, or twice in one: {repeated}")

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
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
                d[key] = GbmParams(**checked_json(GbmParams, d[key]))
            except ValidationError as exc:
                raise ValidationError(f"{key}: {exc}") from None
        return cls(**d)


# the JSON values that a field of each Python type reads (a dataclass: an object)
_JSON_KINDS = {
    str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number"),
    bool: (bool, "a boolean"), tuple: (list, "a list"), list: (list, "a list"),
    dict: (dict, "an object"), type(None): (type(None), "null"),
}


def checked_json(cls, doc, required=None, drop=()) -> dict:
    """``doc`` (JSON text or a parsed value) as a dict of fields of the
    dataclass ``cls``. Raises ValidationError naming the key when the text
    is not JSON or not an object, a key is not a field, a ``required`` key
    (by default each field without a default) is missing, or a value is
    not of its field's JSON type. Keys in ``drop`` are allowed and removed.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    if required is None:
        required = [f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING]
    for key in required:
        if key not in doc:
            raise ValidationError(f"missing key {key!r}")
    hints = get_type_hints(cls)
    doc = {k: v for k, v in doc.items() if k not in drop}
    for key, value in doc.items():
        if key not in hints:
            raise ValidationError(f"unknown key {key!r} (known: {', '.join(hints)})")
        types = get_args(hints[key]) or (hints[key],)
        kinds = [_JSON_KINDS[dict if is_dataclass(t) else t] for t in types]
        # bool is an int subclass: true/false pass only as a boolean
        if (not isinstance(value, tuple(k for k, _ in kinds))
                or (isinstance(value, bool) and bool not in types)):
            expected = " or ".join(name for _, name in kinds)
            raise ValidationError(f"key {key!r} must be {expected}, got {value!r}")
    return doc


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
    outcome_labels: list
    component_labels: list          # treatment components (non-baseline levels
                                    # for discrete; variable names for continuous)
    outcome_predictions: np.ndarray   # n x n_outcomes, out of fold
    treatment_predictions: np.ndarray  # n x components (probabilities reordered
                                       # and baseline-dropped for discrete)
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
    each row's predictions come from models that never saw it.
    """
    for v in (*spec.features, *spec.confounders, *spec.treatments, *spec.outcomes):
        if v not in table.column_names:
            raise ValidationError(f"unknown variable {v!r} in spec {spec.name!r}")

    n = table.n_rows
    xw = _nuisance_matrix(table, (*spec.features, *spec.confounders))
    if xw.shape[1] == 0:
        raise ValidationError("nuisance stage needs at least one feature or confounder")
    folds = make_folds(n, spec.k_folds, spec.seed)

    # (seed tag, targets, out-of-fold predictions, learner) per block of
    # continuous columns, each column boosted on its own
    y_mat = np.column_stack([table.column(v) for v in spec.outcomes])
    y_hat = np.empty_like(y_mat)
    blocks = [("outcome", y_mat, y_hat, spec.outcome_params)]
    if spec.treatment_kind == "continuous":
        t_mat = np.column_stack([table.column(v) for v in spec.treatments])
        t_hat = np.empty_like(t_mat)
        blocks.append(("treatment", t_mat, t_hat, spec.treatment_params))
        component_labels = list(spec.treatments)
    else:
        labels = np.asarray(table.labels(spec.treatments[0]), dtype=object)
        levels = list(spec.levels)
        onehot, component_labels = encode_treatment(labels, spec.baseline, levels)
        probs_all = np.empty((n, len(levels)))

    for fold in range(spec.k_folds):
        test = folds == fold
        train = ~test
        for tag, targets, predictions, params in blocks:
            for j in range(targets.shape[1]):
                model = fit_gbm(
                    xw[train], targets[train, j], _reseed(params, spec.seed, tag, fold, j)
                )
                predictions[test, j] = model.predict(xw[test])

        if spec.treatment_kind == "discrete":
            train_levels = set(labels[train].tolist())
            missing = [lv for lv in levels if lv not in train_levels]
            if missing:
                raise StratificationError(
                    f"fold {fold}: training data misses treatment levels {missing}"
                )
            params = _reseed(spec.treatment_params, spec.seed, "treatment", fold)
            model = fit_gbm_classifier(xw[train], labels[train], params)
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
        outcome_labels=list(spec.outcomes),
        component_labels=list(component_labels),
        outcome_predictions=y_hat,
        treatment_predictions=t_pred,
        outcome_residuals=y_mat - y_hat,
        treatment_residuals=t_resid,
    )


def _reseed(params: GbmParams, root: int, *tags) -> GbmParams:
    return replace(params, seed=derive_seed(root, *tags, params.seed))


@dataclass
class FinalStageModel:
    """Pooled linear effect model theta(x) with robust covariance.

    ``coef`` holds, per outcome, one row per treatment component over the
    featurizer [1, x - x_mean]. ``cov`` is the HC0 sandwich covariance of
    the stacked coefficients (treatment-major ordering), per outcome.
    """

    coef: np.ndarray              # (n_outcomes, components, 1 + dim_x)
    cov: np.ndarray               # (n_outcomes, P, P), P = components * (1 + dim_x)
    x_mean: np.ndarray            # (dim_x,)
    n: int
    outcome_labels: list
    component_labels: list
    feature_names: list
    treatment_kind: str
    baseline: str | None = None
    levels: list | None = None
    model_name: str = ""

    @property
    def n_components(self) -> int:
        return self.coef.shape[1]

    @property
    def dim_features(self) -> int:
        return self.coef.shape[2] - 1

    def featurize(self, feature_rows: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(feature_rows, dtype=np.float64))
        if X.shape[1] != self.dim_features:
            raise EstimationError(
                f"feature width {X.shape[1]} does not match model width {self.dim_features}"
            )
        return np.hstack([np.ones((len(X), 1)), X - self.x_mean])

    def raw_coefficients(self) -> np.ndarray:
        """Coefficients over the uncentered featurizer [1, x]."""
        raw = self.coef.copy()
        raw[:, :, 0] -= self.coef[:, :, 1:] @ self.x_mean
        return raw


def fit_final_stage(
    fit: NuisanceFit,
    feature_rows: np.ndarray,
    spec: ModelSpec,
    feature_names=None,
) -> FinalStageModel:
    """OLS of outcome residuals on treatment residuals times [1, x - mean].

    One pooled regression over all cross-fitted rows per outcome; the
    covariance is the HC0 sandwich. Features are mean-centered so each
    component's intercept is its average effect at the sample mean.
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
    x_mean = X.mean(axis=0) if d else np.empty(0)
    phi = np.hstack([np.ones((n, 1)), X - x_mean])
    m = t_resid.shape[1]
    p = m * (d + 1)
    if n <= p + 5:
        raise EstimationError(f"need more than dim + 5 = {p + 5} rows, have {n}")

    names = list(feature_names) if feature_names is not None else [
        f"x{j + 1}" for j in range(d)
    ]
    design = np.empty((n, p))
    col_labels = []
    for c in range(m):
        for f in range(d + 1):
            design[:, c * (d + 1) + f] = t_resid[:, c] * phi[:, f]
            tag = "intercept" if f == 0 else names[f - 1]
            col_labels.append(f"{fit.component_labels[c]}*{tag}")

    gram = design.T @ design
    _check_rank(gram, col_labels)

    n_y = y_resid.shape[1]
    coef = np.empty((n_y, m, d + 1))
    cov = np.empty((n_y, p, p))
    gram_inv = np.linalg.inv(gram)
    for j in range(n_y):
        beta = gram_inv @ (design.T @ y_resid[:, j])
        resid = y_resid[:, j] - design @ beta
        meat = (design * resid[:, None]).T @ (design * resid[:, None])
        sigma = gram_inv @ meat @ gram_inv
        cov[j] = 0.5 * (sigma + sigma.T)
        coef[j] = beta.reshape(m, d + 1)
    return FinalStageModel(
        coef=coef,
        cov=cov,
        x_mean=x_mean,
        n=n,
        outcome_labels=list(fit.outcome_labels),
        component_labels=list(fit.component_labels),
        feature_names=names,
        treatment_kind=spec.treatment_kind,
        baseline=spec.baseline,
        levels=list(spec.levels) if spec.levels else None,
        model_name=spec.name,
    )


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
        return asdict(self)


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
    phi = model.featurize(feature_rows)
    out = np.empty((len(phi), model.n_components, len(model.outcome_labels)))
    for j in range(len(model.outcome_labels)):
        out[:, :, j] = phi @ model.coef[j].T
    return out


def _mean_design(model: FinalStageModel, feature_rows) -> np.ndarray:
    phi = model.featurize(feature_rows)
    if len(phi) == 0:
        raise EstimationError("no feature rows to average over")
    return phi.mean(axis=0)


def _component_vector(model: FinalStageModel, component: int, base: np.ndarray) -> np.ndarray:
    p = model.n_components * (model.dim_features + 1)
    c = np.zeros(p)
    width = model.dim_features + 1
    c[component * width : (component + 1) * width] = base
    return c


def ate(model: FinalStageModel, feature_rows) -> list:
    """Average treatment effect per (component, outcome).

    The estimate is the mean of the pointwise effects over the given
    rows; its SE comes from the delta method with the mean design row.
    """
    mean_phi = _mean_design(model, feature_rows)
    effects = const_marginal_effect(model, feature_rows)
    rows = []
    for j, outcome in enumerate(model.outcome_labels):
        for c, comp in enumerate(model.component_labels):
            vec = _component_vector(model, c, mean_phi)
            est = float(effects[:, c, j].mean())
            se = float(np.sqrt(vec @ model.cov[j] @ vec))
            rows.append(make_estimate(
                "ate", outcome, comp, est, se,
                t0=model.baseline, t1=comp, model_name=model.model_name,
            ))
    return rows


def contrast(model: FinalStageModel, feature_rows, level_from: str, level_to: str) -> list:
    """Effect of switching treatment level_from -> level_to, per outcome.

    The baseline level acts as the zero component. Estimates are exactly
    antisymmetric in (level_from, level_to), with identical SEs.
    """
    if model.treatment_kind != "discrete":
        raise EstimationError("contrasts require a discrete treatment model")
    mean_phi = _mean_design(model, feature_rows)
    effects = const_marginal_effect(model, feature_rows)

    def block(level):
        if level == model.baseline:
            return None
        if level not in model.component_labels:
            raise ValidationError(f"unknown treatment level {level!r}")
        return model.component_labels.index(level)

    b_to = block(level_to)
    b_from = block(level_from)
    p = model.n_components * (model.dim_features + 1)
    vec = np.zeros(p)
    if b_to is not None:
        vec += _component_vector(model, b_to, mean_phi)
    if b_from is not None:
        vec -= _component_vector(model, b_from, mean_phi)
    rows = []
    for j, outcome in enumerate(model.outcome_labels):
        to_eff = effects[:, b_to, j] if b_to is not None else 0.0
        from_eff = effects[:, b_from, j] if b_from is not None else 0.0
        est = float(np.mean(to_eff - from_eff))
        se = float(np.sqrt(vec @ model.cov[j] @ vec))
        rows.append(make_estimate(
            "contrast", outcome, f"{level_from}->{level_to}", est, se,
            t0=level_from, t1=level_to, model_name=model.model_name,
        ))
    return rows


def pairwise_contrasts(model: FinalStageModel, feature_rows) -> list:
    """All ordered level pairs (earlier -> later) in level order."""
    if model.treatment_kind != "discrete":
        raise EstimationError("contrasts require a discrete treatment model")
    levels = model.levels or []
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
    width = model.dim_features + 1
    rows = []
    for j, outcome in enumerate(model.outcome_labels):
        for c, comp in enumerate(model.component_labels):
            for f, feat in enumerate(model.feature_names, start=1):
                pos = c * width + f
                est = float(model.coef[j, c, f])
                se = float(np.sqrt(model.cov[j][pos, pos]))
                rows.append(make_estimate(
                    "coefficient", outcome, comp, est, se,
                    feature=feat, model_name=model.model_name,
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
    final = fit_final_stage(nuisance, feature_matrix, spec, feature_names=list(spec.features))
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


def export_residuals_csv(fit: NuisanceFit, path) -> None:
    """Residual matrices for audit: fold, outcome and treatment residuals."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        header = (
            ["fold"]
            + [f"resid_y:{o}" for o in fit.outcome_labels]
            + [f"resid_t:{c}" for c in fit.component_labels]
        )
        writer.writerow(header)
        for i in range(len(fit.fold_assignment)):
            row = [int(fit.fold_assignment[i])]
            row += [repr(float(v)) for v in fit.outcome_residuals[i]]
            row += [repr(float(v)) for v in fit.treatment_residuals[i]]
            writer.writerow(row)
