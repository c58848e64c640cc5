import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivedml.boosting import (
    GbmModel,
    GbmParams,
    _best_split,
    _fit_presorted,
    _presort,
    _softmax,
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
    params = GbmParams(n_estimators=25, seed=7)
    for fit, target in ((fit_gbm, y), (fit_gbm_classifier, labels)):
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


def _has_ties(X) -> bool:
    return any(len(np.unique(column)) < len(column) for column in X.T)


@st.composite
def _split_cases(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["small integers", "distinct", "one tie"]))
    if kind == "small integers":
        values = draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))
        X = np.asarray(values, dtype=np.float64).reshape(n, d)
    else:
        # multiples of 1/64, so every midpoint is exact as in the reference
        X = np.column_stack([
            np.asarray(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n,
                                     unique=True)), dtype=np.float64) / 64
            for _ in range(d)
        ])
        if kind == "one tie":
            j = draw(st.integers(0, d - 1))
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            X[b, j] = X[a, j]
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
    cols = np.stack([order[keep[order]] for order in _presort(X)[0]])
    # the sorted values go in whenever X has ties, as in a boosted fit,
    # even where this node's rows hold none
    xs = np.take_along_axis(X.T, cols, axis=1) if _has_ties(X) else None
    up = np.arange(len(X) + 1.0)
    got = _best_split(X, xs, Y, cols, min_leaf, up, up[::-1].copy())
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
    (-1.7e308, -9.76931349e306),  # a + b overflows to -inf
])
def test_midpoint_threshold_keeps_both_children(a, b):
    X = np.array([[a]] * 5 + [[b]] * 5)
    y = np.array([0.0] * 5 + [1.0] * 5)
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    assert tree.threshold[0] == a
    assert tree.value[tree.left[0]] == 0.0
    assert tree.value[tree.right[0]] == 1.0
    assert np.array_equal(tree.predict(X), y)


def _dense_best_split(X, xs, Y, cols, min_leaf, up, down):
    """The dense split search that scoring only the real cuts replaced,
    kept verbatim as its reference: it scores every in-range cut of the
    node's block and, when ``xs`` is given, masks the cuts between equal
    values to -inf.
    """
    n_node = cols.shape[1]
    # split k sends sorted positions 0..k left; lo <= k < hi leaves at
    # least min_leaf rows on each side
    lo, hi = min_leaf - 1, n_node - min_leaf
    if hi <= lo:
        return None
    # in place where the arithmetic allows: on an 8000 x 2 node every
    # temporary is ~128 KB, and the allocator hands freed blocks of that
    # size back to the OS, so each new one costs fresh page faults. The
    # ndarray methods skip the np.* wrappers' dispatch: on ~650-row
    # study folds a node's fixed cost, not its arithmetic, dominates
    cs = Y.take(cols, axis=0)
    cs.cumsum(axis=1, out=cs)
    if Y.ndim == 1:
        total = float(cs[0, -1])
        parent_score = total * total / n_node
    else:
        sums = cs[0, -1]
        parent_score = float((sums * sums).sum()) / n_node
    ls = cs[:, lo:hi]
    rs = cs[:, -1:] - ls
    ls *= ls
    rs *= rs
    if Y.ndim == 2:
        ls = ls.sum(axis=2)
        rs = rs.sum(axis=2)
    # left counts lo + 1 .. hi and right counts n_node - lo - 1 .. n_node - hi,
    # both as contiguous slices: dividing by a reversed view is slower
    ls /= up[lo + 1 : hi + 1]
    off = len(up) - 1 - n_node
    rs /= down[off + lo + 1 : off + hi + 1]
    rs += ls
    score = rs
    if xs is not None:
        np.copyto(score, -np.inf, where=xs[:, lo + 1 : hi + 1] <= xs[:, lo:hi])
    j, k = divmod(int(score.argmax()), hi - lo)
    best = float(score[j, k])
    if best == -np.inf:
        return None
    a, b = float(X[cols[j, lo + k], j]), float(X[cols[j, lo + k + 1], j])
    thr = 0.5 * (a + b)
    # the midpoint of adjacent doubles can round up to b, and of huge
    # values overflow to +inf or -inf; each would send every row one way
    if not a <= thr < b:
        thr = a
    return best, parent_score, j, lo + k + 1, thr


def _study_column(kind, participant, rng):
    n = len(participant)
    if kind == "participant":  # Age, Trust, ...: one value per participant
        return rng.integers(18, 70, 42).astype(np.float64)[participant]
    if kind == "indicator":  # an NDRT level or Gender
        return rng.integers(0, 2, n).astype(np.float64)
    if kind == "few levels":  # KSS 1-10
        return rng.integers(1, 11, n).astype(np.float64)
    return rng.normal(size=n)


def _step_column(c, n, rng):
    """A column whose one real cut, in sorted order, is at position c."""
    return (np.arange(n) > c).astype(np.float64)[rng.permutation(n)]


@st.composite
def _study_nodes(draw):
    """One node of a study-shaped tied design, the kind the sparse split
    search serves: participant-constant columns with at most 42 levels,
    0/1 indicators, few-level scores and continuous columns mixed.

    "no real cut in range" puts every real cut outside the window of
    cuts that leave min_leaf rows a side, so no split exists; "cuts at
    the window's ends" adds the only in-range real cuts at k = lo and
    k = hi - 1. Those two use every row as the node.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # from the generator, so that big nodes are as common as small ones
    n = int(rng.integers(2, 701))
    d = draw(st.integers(5, 29))
    min_leaf = draw(st.integers(1, 20))
    flavour = draw(st.sampled_from(
        ["study", "no real cut in range", "cuts at the window's ends"]))
    lo, hi = min_leaf - 1, n - min_leaf
    if flavour != "study" and hi <= lo:
        flavour = "study"
    if flavour == "study":
        participant = rng.integers(0, draw(st.integers(1, 42)), n)
        kinds = draw(st.lists(st.sampled_from(
            ["participant", "indicator", "few levels", "continuous"]), min_size=d, max_size=d))
        X = np.column_stack([_study_column(kind, participant, rng) for kind in kinds])
        keep = rng.random(n) < rng.uniform(0.2, 1.0)
    else:
        # cut positions outside lo..hi-1, or n - 1 for a constant column
        outside = list(range(lo)) + list(range(hi, n))
        X = np.column_stack([_step_column(rng.choice(outside), n, rng) for _ in range(d)])
        if flavour == "cuts at the window's ends":
            X[:, rng.integers(d)] = _step_column(lo, n, rng)
            X[:, rng.integers(d)] = _step_column(hi - 1, n, rng)
        keep = np.ones(n, dtype=bool)
    m = draw(st.sampled_from([None, 1, 3, 17]))
    shape = (n,) if m is None else (n, m)
    Y = rng.normal(size=shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        Y = np.round(Y)
    return X, Y, keep, min_leaf, flavour


@settings(max_examples=200, deadline=None)
@given(_study_nodes())
def test_real_cut_split_matches_dense_reference(case):
    X, Y, keep, min_leaf, flavour = case
    presort, xs = _presort(X)
    cols = np.stack([order[keep[order]] for order in presort])
    if xs is not None:
        xs = np.take_along_axis(X.T, cols, axis=1)
    up = np.arange(len(X) + 1.0)
    args = (X, xs, Y, cols, min_leaf, up, up[::-1].copy())
    got, want = _best_split(*args), _dense_best_split(*args)
    if flavour == "no real cut in range":
        assert want is None
    if want is None:
        assert got is None
        return
    assert got is not None
    score, parent_score, feature, n_left, threshold = got
    assert np.float64(score).tobytes() == np.float64(want[0]).tobytes()
    assert np.float64(parent_score).tobytes() == np.float64(want[1]).tobytes()
    assert (feature, n_left) == want[2:4]
    assert np.float64(threshold).tobytes() == np.float64(want[4]).tobytes()
    if flavour == "cuts at the window's ends":
        assert n_left in (min_leaf, cols.shape[1] - min_leaf)


def _root_split(X, Y, min_leaf):
    presort, xs = _presort(X)
    assert xs is not None  # a tied design: the real-cut search
    up = np.arange(len(X) + 1.0)
    return _best_split(X, xs, Y, presort, min_leaf, up, up[::-1].copy())


def test_identical_tied_columns_split_on_the_first():
    rng = np.random.default_rng(5)
    x = rng.permutation(np.repeat(np.arange(10.0), 3))
    y = np.sin(x) + rng.normal(size=len(x))
    for X in (np.column_stack([x, x]), np.column_stack([x, x, x])):
        assert _root_split(X, y, 1)[2] == 0


def test_bit_equal_cuts_split_at_the_lower_threshold():
    # the real cuts 0|1 and 1|2 both score 0^2/2 + 2^2/4 = 2^2/4 + 0^2/2 = 1.0
    X = np.array([[1.0], [0.0], [2.0], [0.0], [1.0], [2.0]])
    y = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    score, _, feature, n_left, threshold = _root_split(X, y, 1)
    assert (score, feature, n_left, threshold) == (1.0, 0, 2, 0.5)


# ties, adjacent doubles around 1.0 and values whose sum overflows; the
# other draws are distinct floats from the whole finite range
_EDGE_VALUES = [
    -1.7e308, -1.0, 0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5e308, 1.7e308,
]


@st.composite
def _tree_cases(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        X = np.asarray(draw(st.lists(st.sampled_from(_EDGE_VALUES), min_size=n * d,
                                     max_size=n * d))).reshape(n, d)
    else:
        # continuous columns with no repeated value: the tie-free path
        X = np.column_stack([
            draw(st.lists(st.floats(-1.7e308, 1.7e308), min_size=n, max_size=n, unique=True))
            for _ in range(d)
        ])
        assert not _has_ties(X)
    y = np.asarray(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                   dtype=np.float64)
    min_leaf = draw(st.integers(min_value=1, max_value=max(1, min(3, n // 2))))
    max_depth = draw(st.integers(min_value=0, max_value=4))
    return X, y, min_leaf, max_depth


@settings(max_examples=200, deadline=None)
@given(_tree_cases())
def test_training_leaves_match_apply(case):
    X, y, min_leaf, max_depth = case
    tree, leaf_of_row = _fit_presorted(X, y, _presort(X), max_depth, min_leaf)
    assert np.array_equal(leaf_of_row, tree.apply(X))
    leaves = tree.feature < 0
    assert np.isfinite(tree.value[leaves]).all()
    assert np.isin(np.flatnonzero(leaves), leaf_of_row).all()
    _assert_same_tree(tree, fit_tree(X, y, max_depth=max_depth, min_leaf=min_leaf))
    # the CATE tree shares the traversal: each leaf holds its n rows
    cate = fit_cate_tree(X, y, max_depth=max_depth, min_leaf=min_leaf)
    counts = np.bincount(cate.apply(X), minlength=len(cate.nodes))
    assert [counts[i] for i, nd in enumerate(cate.nodes) if nd.is_leaf] == [
        nd.n for nd in cate.leaves()
    ]


def _preorder_walk(left, right) -> list:
    """Node ids in the order a left-first walk from node 0 visits them."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if left[i] >= 0:
            stack += [right[i], left[i]]
    return order


@settings(max_examples=100, deadline=None)
@given(_tree_cases())
def test_every_tree_comes_out_in_preorder(case):
    X, y, min_leaf, max_depth = case
    trees = [fit_tree(X, y, max_depth=max_depth, min_leaf=min_leaf)]
    params = GbmParams(n_estimators=3, max_depth=max_depth, min_leaf=min_leaf)
    if len(X) >= 10:
        trees += [t for round_trees in fit_gbm(X, y, params).trees for t in round_trees]
        if len(set(y.tolist())) > 1:
            model = fit_gbm_classifier(X, y, params)
            trees += [t for round_trees in model.trees for t in round_trees]
    for tree in trees:
        assert _preorder_walk(tree.left, tree.right) == list(range(tree.n_nodes))
    cate = fit_cate_tree(X, y, max_depth=max_depth, min_leaf=min_leaf)
    assert _preorder_walk([nd.left for nd in cate.nodes], [nd.right for nd in cate.nodes]) == (
        list(range(len(cate.nodes)))
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fit", [
    lambda X, y: fit_tree(X, y, min_leaf=1),
    lambda X, y: fit_gbm(X, y, GbmParams(n_estimators=2, min_leaf=1)),
    lambda X, y: fit_gbm_classifier(X, y > 0, GbmParams(n_estimators=2, min_leaf=1)),
    lambda X, y: fit_cate_tree(X, y, min_leaf=1),
], ids=["fit_tree", "fit_gbm", "fit_gbm_classifier", "fit_cate_tree"])
def test_non_finite_features_rejected_on_every_tree_path(fit, bad):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    fit(X, y)
    X[7, 1] = bad
    with pytest.raises(EstimationError, match="non-finite"):
        fit(X, y)


def test_classifier_rejects_misaligned_labels():
    X = np.random.default_rng(5).normal(size=(30, 2))
    labels = np.arange(30) % 3
    with pytest.raises(ValueError, match="aligned"):
        fit_gbm_classifier(X, labels[:-1], GbmParams(n_estimators=2))
    with pytest.raises(ValueError, match="aligned"):
        fit_gbm(X, labels[:-1].astype(float), GbmParams(n_estimators=2))


def test_targets_that_would_overflow_the_split_sums_are_rejected():
    X = np.arange(12.0).reshape(-1, 1)
    # the mean of these finite targets overflows
    with pytest.raises(EstimationError, match="would overflow"):
        fit_gbm(X, np.full(12, 1e308), GbmParams(n_estimators=2))
    # these square to inf in the split search
    alternating = np.array([1e200, -1e200] * 6)
    with pytest.raises(EstimationError, match="would overflow"):
        fit_gbm(X, alternating, GbmParams(n_estimators=2, min_leaf=1))
    with pytest.raises(EstimationError, match="would overflow"):
        fit_tree(X, alternating, min_leaf=1)
    with pytest.raises(EstimationError, match="would overflow"):
        fit_cate_tree(X, np.column_stack([alternating, alternating]), min_leaf=1)
    for bad in (np.nan, np.inf):
        with pytest.raises(EstimationError, match="non-finite"):
            fit_tree(X, np.full(12, bad))
    # the largest accepted targets fit without an overflow (the suite
    # turns a RuntimeWarning into an error); all of one sign make the
    # biggest sums
    limit = np.sqrt(np.finfo(np.float64).max) / 24
    ramp = limit * np.linspace(0.5, 1.0, 12)
    tree = fit_tree(X, ramp, max_depth=3, min_leaf=1)
    assert np.isfinite(tree.value).all() and tree.n_nodes > 1
    assert np.isfinite(fit_gbm(X, ramp, GbmParams(n_estimators=3, min_leaf=1)).predict(X)).all()
    cate = fit_cate_tree(X, np.column_stack([ramp, ramp]) / np.sqrt(2), min_leaf=1)
    assert all(np.isfinite(nd.mean).all() for nd in cate.nodes)


def _assert_same_tree(a, b):
    for name in ("feature", "threshold", "left", "right", "value"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _boost_with_fit_tree(X, targets, base, params, newton):
    """Rounds of trees from the boosting loop as it ran when every tree was
    its own fit_tree call on X and the residuals: leaf ids from
    tree.apply(X), Newton leaf values for log-loss."""
    n, k = targets.shape
    scores = np.tile(base, (n, 1))
    rounds = []
    for _ in range(params.n_estimators):
        resid = targets - (_softmax(scores) if newton else scores)
        round_trees = []
        for c in range(k):
            rc = resid[:, c]
            tree = fit_tree(X, rc, params.max_depth, params.min_leaf)
            leaf = tree.apply(X)
            if newton:
                num = np.bincount(leaf, weights=rc, minlength=tree.n_nodes)
                ar = np.abs(rc) * (1.0 - np.abs(rc))
                den = np.bincount(leaf, weights=ar, minlength=tree.n_nodes)
                good = den > 1e-12
                tree.value = np.zeros(tree.n_nodes)
                tree.value[good] = (k - 1.0) / k * num[good] / den[good]
            scores[:, c] += params.learning_rate * tree.value[leaf]
            round_trees.append(tree)
        rounds.append(round_trees)
    return rounds


@pytest.mark.parametrize("tied", [True, False])
def test_boosted_trees_keep_no_row_cache(tied):
    rng = np.random.default_rng(12)
    n = 240
    X = rng.integers(0, 6, size=(n, 3)).astype(float) if tied else rng.normal(size=(n, 3))
    X_new = rng.normal(size=(50, 3)) * 3.0
    y = np.sin(X[:, 0]) + X[:, 1] + rng.normal(scale=0.3, size=n)
    cuts = [3.0, 6.0] if tied else [-1.0, 1.0]
    labels = np.digitize(X[:, 0] + X[:, 2] + rng.normal(size=n), cuts)
    params = GbmParams(n_estimators=12, max_depth=3, min_leaf=5, seed=0)
    reg = fit_gbm(X, y, params)
    clf = fit_gbm_classifier(X, labels, params)
    ref_reg = GbmModel("squared-error", reg.base_prediction, _boost_with_fit_tree(
        X, y.reshape(-1, 1), reg.base_prediction, params, newton=False), params, 3)
    onehot = (labels[:, None] == np.array(clf.classes)[None, :]).astype(float)
    ref_clf = GbmModel("multinomial-log-loss", clf.base_prediction, _boost_with_fit_tree(
        X, onehot, clf.base_prediction, params, newton=True), params, 3, clf.classes)
    for model, ref in ((reg, ref_reg), (clf, ref_clf)):
        for Z in (X, X_new):
            assert model.predict(Z).tobytes() == ref.predict(Z).tobytes()
        assert [len(r) for r in model.trees] == [len(r) for r in ref.trees]
        for round_a, round_b in zip(model.trees, ref.trees):
            for a, b in zip(round_a, round_b):
                _assert_same_tree(a, b)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("tied", [True, False])
def test_block_fit_matches_one_column_fits(k, tied):
    rng = np.random.default_rng(17)
    n = 220
    X = rng.integers(0, 5, size=(n, 3)).astype(float) if tied else rng.normal(size=(n, 3))
    X_new = rng.normal(size=(40, 3)) * 3.0
    # every other column of a wider matrix: a strided block, columns on
    # different scales
    wide = np.column_stack([
        (c + 1.0) ** 2 * np.sin(X[:, c % 3] + c) + X[:, (c + 1) % 3] + rng.normal(size=n)
        for c in range(2 * k)
    ])
    Y = wide[:, ::2]
    params = GbmParams(n_estimators=8, max_depth=3, min_leaf=5)
    block = fit_gbm(X, Y, params)
    assert block.base_prediction.shape == (k,)
    assert all(len(r) == k for r in block.trees)
    predicted = block.predict(X_new)
    assert predicted.shape == ((40,) if k == 1 else (40, k))
    for c in range(k):
        alone = fit_gbm(X, Y[:, c].copy(), params)
        assert block.base_prediction[c].tobytes() == alone.base_prediction[0].tobytes()
        for round_block, round_alone in zip(block.trees, alone.trees, strict=True):
            _assert_same_tree(round_block[c], round_alone[0])
        column = predicted if k == 1 else predicted[:, c]
        assert np.ascontiguousarray(column).tobytes() == alone.predict(X_new).tobytes()


def test_block_target_check_uses_each_columns_limit():
    X = np.arange(12.0).reshape(-1, 1)
    # just under one column's limit; the limit of the two-column block
    # taken as a whole is sqrt(2) smaller
    limit = np.sqrt(np.finfo(np.float64).max) / 24
    ramp = 0.999 * limit * np.linspace(0.5, 1.0, 12)
    params = GbmParams(n_estimators=3, min_leaf=1)
    block = np.column_stack([ramp, np.linspace(-1.0, 1.0, 12)])
    model = fit_gbm(X, block, params)
    assert np.isfinite(model.predict(X)).all()
    assert model.predict(X)[:, 0].tobytes() == fit_gbm(X, ramp, params).predict(X).tobytes()
    with pytest.raises(EstimationError, match="would overflow"):
        fit_gbm(X, np.column_stack([np.ones(12), 1.01 * ramp / 0.999]), params)
    with pytest.raises(EstimationError, match="non-finite"):
        fit_gbm(X, np.column_stack([np.ones(12), np.full(12, np.nan)]), params)
