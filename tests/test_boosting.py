import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivedml.boosting import (
    GbmParams,
    _best_split,
    _presort,
    _sorted_columns,
    fit_gbm,
    fit_gbm_classifier,
    fit_tree,
)
from drivedml.cate_tree import fit_cate_tree
from drivedml.errors import EstimationError


def test_constant_targets_single_leaf():
    tree = fit_tree(np.zeros((20, 2)), np.full(20, 7.0), max_depth=4, min_leaf=2)
    assert tree.n_nodes == 1
    assert tree.value[0] == 7.0


def test_separable_step_splits_at_midpoint():
    X = np.array([[0.0]] * 4 + [[1.0]] * 4)
    y = np.array([1.0] * 4 + [5.0] * 4)
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5
    assert tree.value[tree.left[0]] == 1.0
    assert tree.value[tree.right[0]] == 5.0


def test_identity_function_deep_tree_fit():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, 100).reshape(-1, 1)
    y = X[:, 0].copy()
    tree = fit_tree(X, y, max_depth=6, min_leaf=1)
    mse = float(np.mean((tree.predict(X) - y) ** 2))
    assert mse < 0.01 * np.var(y)


def test_tree_rejects_bad_input():
    with pytest.raises(EstimationError, match="rows"):
        fit_tree(np.zeros((4, 1)), np.zeros(4), min_leaf=5)
    with pytest.raises(EstimationError, match="finite"):
        fit_tree(np.array([[np.nan]] * 12), np.zeros(12), min_leaf=1)


def test_gbm_constant_target_exact():
    X = np.random.default_rng(1).normal(size=(30, 2))
    model = fit_gbm(X, np.full(30, 4.25), GbmParams(n_estimators=10))
    assert np.all(model.predict(X) == 4.25)
    assert all(tree.n_nodes == 1 for (tree,) in model.trees)


def test_gbm_fits_sine():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, 500).reshape(-1, 1)
    y = np.sin(2 * np.pi * X[:, 0])
    model = fit_gbm(X, y, GbmParams(n_estimators=200, learning_rate=0.1,
                                    max_depth=3, min_leaf=5, seed=1))
    rmse = float(np.sqrt(np.mean((model.predict(X) - y) ** 2)))
    assert rmse < 0.05


def test_classifier_separable_problem():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(400, 1))
    labels = np.where(X[:, 0] > 0, "hi", "lo")
    model = fit_gbm_classifier(X, labels, GbmParams(n_estimators=60, seed=4))
    probs = model.predict(np.array([[1.5], [-1.5]]))
    hi = model.classes.index("hi")
    assert probs[0, hi] >= 0.95
    assert probs[1, 1 - hi] >= 0.95


def test_probability_rows_sum_to_one():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 2))
    labels = np.asarray(["a", "b", "c"])[rng.integers(0, 3, 200)]
    model = fit_gbm_classifier(X, labels, GbmParams(n_estimators=30, seed=5))
    probs = model.predict(X)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_predict_is_pointwise():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(100, 2))
    y = X[:, 0] + rng.normal(size=100)
    model = fit_gbm(X, y, GbmParams(n_estimators=20, seed=6))
    perm = rng.permutation(100)
    assert np.array_equal(model.predict(X)[perm], model.predict(X[perm]))


def test_determinism_bit_identical():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(150, 2))
    y = X[:, 0] ** 2 + rng.normal(size=150)
    labels = np.digitize(y, [0.5, 1.5]).astype(str)
    for fit, target in ((fit_gbm, y), (fit_gbm_classifier, labels)):
        for params in (GbmParams(n_estimators=25, seed=7),
                       GbmParams(n_estimators=25, subsample=0.6, seed=8)):
            first, second = fit(X, target, params), fit(X, target, params)
            assert first.predict(X).tobytes() == second.predict(X).tobytes()
            assert len(first.trees) == len(second.trees)
            for round_a, round_b in zip(first.trees, second.trees):
                assert len(round_a) == len(round_b)
                for a, b in zip(round_a, round_b):
                    for name in ("feature", "threshold", "value"):
                        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_training_loss_monotone_in_tree_count():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(scale=0.2, size=300)
    model = fit_gbm(X, y, GbmParams(n_estimators=60, seed=9))
    fitted = np.full(300, model.base_prediction[0])
    losses = []
    for (tree,) in model.trees:
        fitted += model.params.learning_rate * tree.predict(X)
        losses.append(float(np.mean((y - fitted) ** 2)))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_leaf_regions_are_constant():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 2))
    y = X[:, 0] + rng.normal(size=200)
    tree = fit_tree(X, y, max_depth=3, min_leaf=5)
    thresholds = sorted(t for f, t in zip(tree.feature, tree.threshold) if f == 0)
    # nudge a point without crossing any feature-0 threshold
    x = np.array([[thresholds[0] - 0.5, 0.0]])
    eps = min(0.4, (thresholds[0] - x[0, 0]) / 2)
    x2 = x.copy()
    x2[0, 0] += eps
    assert tree.predict(x) == tree.predict(x2)


def test_width_mismatch_and_single_class_errors():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 2))
    model = fit_gbm(X, X[:, 0], GbmParams(n_estimators=5))
    with pytest.raises(EstimationError, match="width"):
        model.predict(rng.normal(size=(5, 3)))
    with pytest.raises(EstimationError, match="class"):
        fit_gbm_classifier(X, np.asarray(["same"] * 50), GbmParams())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_subsample_uses_valid_rows(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 1))
    y = X[:, 0]
    params = GbmParams(n_estimators=3, subsample=0.5, seed=seed)
    model = fit_gbm(X, y, params)
    assert len(model.trees) == 3
    assert np.isfinite(model.predict(X)).all()
    # the classifier's subsampled rounds: one tree per class, valid rows
    labels = np.asarray(["a", "b", "c"])[rng.integers(0, 3, 40)]
    model = fit_gbm_classifier(X, labels, params)
    assert [len(round_trees) for round_trees in model.trees] == [len(model.classes)] * 3
    probs = model.predict(X)
    assert np.isfinite(probs).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def _best_split_reference(columns, Y, cols, min_leaf):
    """The per-feature split search the gathered kernel replaced.

    ``columns`` and ``cols`` are lists of 1-D arrays, one per feature.
    """
    best = None
    for j, idx in enumerate(cols):
        xs = columns[j][idx]
        ok = xs[1:] > xs[:-1]
        ok[: min_leaf - 1] = False
        ok[len(ok) - min_leaf + 1 :] = False
        if not ok.any():
            continue
        cs = np.cumsum(Y[idx], axis=0)
        lw = np.arange(1.0, len(idx))
        rw = len(idx) - lw
        ls = cs[:-1]
        rs = cs[-1] - ls
        l2 = ls * ls
        r2 = rs * rs
        if Y.ndim == 2:
            l2 = l2.sum(axis=1)
            r2 = r2.sum(axis=1)
        score = l2 / lw + r2 / rw
        score[~ok] = -np.inf
        k = int(np.argmax(score))
        if best is None or score[k] > best[0]:
            best = (float(score[k]), j, 0.5 * (xs[k] + xs[k + 1]))
    return best


@st.composite
def _split_cases(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    X = np.asarray(draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d)),
                   dtype=np.float64).reshape(n, d)
    m = draw(st.sampled_from([None, 1, 3]))
    shape = (n,) if m is None else (n, m)
    size = int(np.prod(shape))
    Y = np.asarray(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)),
                   dtype=np.float64).reshape(shape)
    if draw(st.booleans()):
        Y = Y + np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)
    # a node is any subset of the rows, each feature's rows kept in sorted order
    keep = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    min_leaf = draw(st.integers(min_value=1, max_value=5))
    return X, Y, keep, min_leaf


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_gathered_split_matches_per_feature_reference(case):
    X, Y, keep, min_leaf = case
    cols = np.stack([order[keep[order]] for order in _presort(X)])
    xs = _sorted_columns(X, cols)
    got = _best_split(xs, Y, cols, min_leaf)
    want = _best_split_reference(list(X.T), Y, list(cols), min_leaf)
    if want is None:
        assert got is None
        return
    score, parent_score, feature, n_left, threshold = got
    assert np.float64(score).tobytes() == np.float64(want[0]).tobytes()
    assert feature == want[1]
    assert np.float64(threshold).tobytes() == np.float64(want[2]).tobytes()
    # the left child is every row at or below the reference threshold
    assert n_left == int((X[cols[feature], feature] <= want[2]).sum())
    # parent score from the node's targets summed in feature-0 order
    sums = np.cumsum(Y[cols[0]], axis=0)[-1]
    want_parent = float((sums * sums).sum()) / cols.shape[1]
    assert np.float64(parent_score).tobytes() == np.float64(want_parent).tobytes()


@pytest.mark.parametrize("a, b", [
    (np.nextafter(1.0, 0.0), 1.0),  # the midpoint rounds up to b
    (1.5e308, 1.7e308),  # a + b overflows to inf
])
def test_midpoint_threshold_keeps_both_children(a, b):
    X = np.array([[a]] * 5 + [[b]] * 5)
    y = np.array([0.0] * 5 + [1.0] * 5)
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    assert tree.threshold[0] == a
    assert tree.value[tree.left[0]] == 0.0
    assert tree.value[tree.right[0]] == 1.0
    assert np.array_equal(tree.predict(X), y)


# ties, adjacent doubles around 1.0 and values whose sum overflows
_EDGE_VALUES = [
    -1.7e308, -1.0, 0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5e308, 1.7e308,
]


@st.composite
def _tree_cases(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=3))
    X = np.asarray(draw(st.lists(st.sampled_from(_EDGE_VALUES), min_size=n * d,
                                 max_size=n * d))).reshape(n, d)
    y = np.asarray(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                   dtype=np.float64)
    min_leaf = draw(st.integers(min_value=1, max_value=max(1, min(3, n // 2))))
    max_depth = draw(st.integers(min_value=0, max_value=4))
    return X, y, min_leaf, max_depth


@settings(max_examples=200, deadline=None)
@given(_tree_cases())
def test_training_leaves_match_apply(case):
    X, y, min_leaf, max_depth = case
    tree = fit_tree(X, y, max_depth=max_depth, min_leaf=min_leaf)
    assert np.array_equal(tree.leaf_of_row_cache, tree.apply(X))
    leaves = tree.feature < 0
    assert np.isfinite(tree.value[leaves]).all()
    assert np.isin(np.flatnonzero(leaves), tree.leaf_of_row_cache).all()
    # the CATE tree shares the traversal: each leaf holds its n rows
    cate = fit_cate_tree(X, y, max_depth=max_depth, min_leaf=min_leaf)
    counts = np.bincount(cate.apply(X), minlength=len(cate.nodes))
    assert [counts[i] for i, nd in enumerate(cate.nodes) if nd.is_leaf] == [
        nd.n for nd in cate.leaves()
    ]
