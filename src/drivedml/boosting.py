"""Gradient-boosted regression trees, from scratch on numpy.

Two losses are supported: squared error for continuous targets and
multinomial log-loss for discrete treatments. Both run through one
stagewise round loop, ``_boost``: it presorts X once, fits one tree per
score column each round to targets minus scores (minus softmax scores
for log-loss) and, for log-loss only, replaces the leaf values with a
Newton step. ``fit_gbm`` and ``fit_gbm_classifier`` only build the
targets and base scores. Split search is exhaustive over sorted unique
thresholds (no histogram binning; the study tables are small enough that
exactness is affordable). Fitting is deterministic for a fixed seed.

``_grow`` is the package's one CART kernel: ``fit_tree`` runs it on one
target column with unweighted rows, and ``cate_tree.fit_cate_tree`` runs
it on a matrix of effect components. The kernel keeps a node's sorted
row indices and their feature values as two (d, n_node) arrays, so a
node's split search over all d features is a handful of whole-block
numpy calls instead of d per-feature passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ValidationError
from .rng import Xorshift64Star, derive_seed

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class GbmParams:
    """Hyperparameters for one boosted model.

    Defaults follow common GBM practice; every run manifest records the
    values actually used.
    """

    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 5
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError("learning_rate must be in (0, 1]")
        if self.max_depth < 0:
            raise ValidationError("max_depth must be >= 0")
        if self.min_leaf < 1:
            raise ValidationError("min_leaf must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValidationError("subsample must be in (0, 1]")


@dataclass
class RegressionTree:
    """Binary regression tree in flat-array form.

    ``feature[i] == -1`` marks node i as a leaf whose prediction is
    ``value[i]``; an internal node's value is 0 and never read. Internal
    nodes send rows with x[feature] <= threshold to ``left[i]`` and the
    rest to ``right[i]``. Predictions are piecewise constant over feature
    space.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    # leaf id of every training row, populated by fit_tree
    leaf_of_row_cache: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X."""
        return _leaf_index(X, self.feature, self.threshold, self.left, self.right)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]


def _presort(X: np.ndarray) -> np.ndarray:
    """Stable argsort of every feature column as one (d, n) array.

    Row j holds the row indices that sort column j; computed once per fit.
    """
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _sorted_columns(X: np.ndarray, presort: np.ndarray) -> np.ndarray:
    """The features in presort order as one (d, n) array: row j is column
    j of X, sorted."""
    return np.take_along_axis(X.T, presort, axis=1)


def _best_split(xs, Y, cols, min_leaf):
    """(score, parent_score, feature, n_left, threshold) of the best split
    of one node, or None.

    ``cols`` is the node's (d, n_node) block of sorted row indices and
    ``xs`` the matching block of feature values, row j sorted. All d
    features are scanned at once: one cumulative sum of the gathered
    targets along each row and one score block over the candidate
    thresholds that leave at least ``min_leaf`` rows on each side. The
    score is sum over children and target columns of (sum y)^2 / n;
    bigger is better. Ties break toward the lowest feature index and then
    the lowest threshold (np.argmax keeps the first maximum of the
    row-major block). The left child is the first ``n_left`` entries of
    row ``feature``.
    """
    n_node = cols.shape[1]
    # split k sends sorted positions 0..k left; lo <= k < hi leaves at
    # least min_leaf rows on each side
    lo, hi = min_leaf - 1, n_node - min_leaf
    if hi <= lo:
        return None
    tied = xs[:, lo + 1 : hi + 1] <= xs[:, lo:hi]
    if tied.all():
        return None
    # in place where the arithmetic allows: on an 8000 x 2 node every
    # temporary is ~128 KB, and the allocator hands freed blocks of that
    # size back to the OS, so each new one costs fresh page faults
    cs = Y.take(cols, axis=0)
    np.cumsum(cs, axis=1, out=cs)
    sums = cs[0, -1]
    parent_score = float((sums * sums).sum()) / n_node
    ls = cs[:, lo:hi]
    rs = cs[:, -1:] - ls
    ls *= ls
    rs *= rs
    if Y.ndim == 2:
        ls = ls.sum(axis=2)
        rs = rs.sum(axis=2)
    lw = np.arange(lo + 1.0, hi + 1.0)
    ls /= lw
    rs /= n_node - lw
    score = np.add(ls, rs, out=rs)
    np.copyto(score, -np.inf, where=tied)
    j, k = divmod(int(np.argmax(score)), hi - lo)
    a, b = float(xs[j, lo + k]), float(xs[j, lo + k + 1])
    thr = 0.5 * (a + b)
    # the midpoint of adjacent doubles can round up to b, and of huge
    # values overflow to inf; either would send every row left
    if thr >= b:
        thr = a
    return float(score[j, k]), parent_score, j, lo + k + 1, thr


def _grow(xs, Y, max_depth, min_leaf, presort):
    """Greedy least-squares CART on targets Y, (n,) or (n, m).

    Splits maximise the squared-error reduction summed over target
    columns, with an exhaustive scan of midpoints between sorted unique
    values. ``xs`` and ``presort`` are the (d, n) arrays of
    ``_sorted_columns`` and ``_presort``; each node keeps its rows as one
    (d, n_node) block, row j sorted by feature j, beside the matching
    block of values. A split marks the left child's rows by position in
    the split feature's row and partitions both blocks with one mask and
    ``np.compress``, which keeps every row's order.
    Returns flat (feature, threshold, left, right) lists, where feature
    -1 marks a leaf, and each node's training rows. The root's rows are
    in row order; every other node's in ``presort[0]`` order.
    """
    n = len(Y)
    d = len(presort)
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    rows = [np.arange(n)]
    go_left = np.zeros(n, dtype=bool)
    # stack entries: (node_id, depth, sorted row indices, sorted values)
    stack = [(0, 0, presort, xs)]
    while stack:
        node_id, depth, cols, xs = stack.pop()
        best = _best_split(xs, Y, cols, min_leaf) if depth < max_depth else None
        if best is None:
            continue
        score, parent_score, j, n_left, thr = best
        if score <= parent_score + _GAIN_EPS * max(1.0, abs(parent_score)):
            continue
        feature[node_id] = j
        threshold[node_id] = thr
        ids = (len(feature), len(feature) + 1)
        left[node_id], right[node_id] = ids
        go_left[cols[j, :n_left]] = True
        if depth + 1 < max_depth:
            mask = go_left[cols].ravel()
            for child_id, side in zip(ids, (mask, ~mask)):
                child_cols = np.compress(side, cols).reshape(d, -1)
                child_xs = np.compress(side, xs).reshape(d, -1)
                stack.append((child_id, depth + 1, child_cols, child_xs))
                rows.append(child_cols[0])
        else:
            # a child at max_depth is never searched: keep only its rows
            mask = go_left[cols[0]]
            rows += [cols[0][mask], cols[0][~mask]]
        go_left[cols[j, :n_left]] = False
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
    return feature, threshold, left, right, rows


def _leaf_index(X, feature, threshold, left, right) -> np.ndarray:
    """Leaf index of every row of X in a flat-array tree.

    Walks one depth at a time: each pass moves every row one level down,
    and a leaf is its own child, so a row that reached one stays there.
    Parents precede their children in the arrays.
    """
    leaf = feature < 0
    ids = np.arange(len(feature))
    split_on = np.where(leaf, 0, feature)
    to_left = np.where(leaf, ids, left)
    to_right = np.where(leaf, ids, right)
    depth = [0] * len(feature)
    lefts, rights = left.tolist(), right.tolist()
    for i in np.flatnonzero(~leaf).tolist():
        depth[lefts[i]] = depth[rights[i]] = depth[i] + 1
    X = np.ascontiguousarray(X, dtype=np.float64)
    flat = X.ravel()
    row_start = np.arange(0, flat.size, X.shape[1])
    node = np.zeros(len(X), dtype=np.int64)
    for _ in range(max(depth)):
        x = flat.take(row_start + split_on[node])
        node = np.where(x <= threshold[node], to_left[node], to_right[node])
    return node


def fit_tree(
    X: np.ndarray,
    targets: np.ndarray,
    max_depth: int = 3,
    min_leaf: int = 5,
    presort: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> RegressionTree:
    """Greedy CART least-squares tree.

    Splits maximise squared-error reduction with an exhaustive threshold
    scan; leaves predict the mean of their rows. ``presort``/``columns``
    (the (d, n) arrays of ``_presort`` and ``_sorted_columns``) let a
    boosting loop reuse the per-feature sort orders and sorted feature
    values across trees.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be n x p and aligned with targets")
    if len(y) < 2 * min_leaf:
        raise EstimationError(
            f"need at least {2 * min_leaf} rows to split with min_leaf={min_leaf}"
        )
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise EstimationError("non-finite values in tree training data")
    if presort is None:
        presort = _presort(X)
    if columns is None:
        columns = _sorted_columns(X, presort)
    feature, threshold, left, right, rows = _grow(columns, y, max_depth, min_leaf, presort)
    leaf_of_row = np.zeros(len(y), dtype=np.int64)
    value = np.zeros(len(rows))
    for node_id, r in enumerate(rows):
        if feature[node_id] < 0:
            leaf_of_row[r] = node_id
            # sum / count is np.mean's arithmetic, bit for bit
            value[node_id] = y[r].sum() / len(r)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=value,
        leaf_of_row_cache=leaf_of_row,
    )


@dataclass
class GbmModel:
    """A fitted gradient-boosted ensemble.

    ``trees`` holds one list per boosting round with one tree per score
    column: k = 1 for squared error, one per class for log-loss. Scores
    are ``base_prediction`` (a (k,) array) plus learning_rate times the
    sum of tree outputs; predict(X) is score column 0 for regression and
    the softmax class probabilities for classification.
    """

    loss: str  # "squared-error" | "multinomial-log-loss"
    base_prediction: np.ndarray  # (k,): the mean target, or per-class log priors
    trees: list  # list[list[RegressionTree]], one list per round
    params: GbmParams
    n_features: int
    classes: list | None = None

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """(n, k) scores of the rows of X."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise EstimationError(
                f"feature width {X.shape[1] if X.ndim == 2 else 'n/a'} does not "
                f"match training width {self.n_features}"
            )
        out = np.tile(self.base_prediction, (len(X), 1))
        for round_trees in self.trees:
            for c, tree in enumerate(round_trees):
                out[:, c] += self.params.learning_rate * tree.predict(X)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Point predictions (regression) or probability rows (classification)."""
        scores = self.raw_scores(X)
        if self.loss == "squared-error":
            return scores[:, 0]
        return _softmax(scores)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _subsample_rows(n: int, params: GbmParams, stream: Xorshift64Star) -> np.ndarray | None:
    if params.subsample >= 1.0:
        return None
    m = max(int(np.floor(params.subsample * n)), 2 * params.min_leaf)
    m = min(m, n)
    return stream.sample_indices(n, m)


def _boost(X, targets, base, params: GbmParams, newton: bool) -> list:
    """Stagewise boosting of the (n, k) score matrix toward ``targets``.

    Scores start at ``base`` on every row. Each round fits one tree per
    score column to the residuals, targets - scores for squared error or
    targets - softmax(scores) for log-loss (``newton``), and adds the
    learning rate times its leaf values. With ``newton`` each tree's leaf
    values are the one-step Newton estimate for multinomial deviance
    (Friedman 2001, Sec. 4.6). Returns the rounds' trees.
    """
    n, k = targets.shape
    presort = _presort(X)
    columns = _sorted_columns(X, presort)
    stream = Xorshift64Star(derive_seed(params.seed, "gbm-subsample"))
    scores = np.tile(base, (n, 1))
    rounds = []
    for _ in range(params.n_estimators):
        resid = targets - (_softmax(scores) if newton else scores)
        rows = _subsample_rows(n, params, stream)
        round_trees = []
        for c in range(k):
            rc = resid[:, c]
            if rows is None:
                tree = fit_tree(
                    X, rc, params.max_depth, params.min_leaf,
                    presort=presort, columns=columns,
                )
                leaf_of_row = tree.leaf_of_row_cache
            else:
                tree = fit_tree(X[rows], rc[rows], params.max_depth, params.min_leaf)
                leaf_of_row = tree.apply(X)
            if newton:
                # per leaf: (k-1)/k * sum(r) / sum(|r| (1-|r|))
                num = np.bincount(leaf_of_row, weights=rc, minlength=tree.n_nodes)
                ar = np.abs(rc) * (1.0 - np.abs(rc))
                den = np.bincount(leaf_of_row, weights=ar, minlength=tree.n_nodes)
                good = den > 1e-12
                tree.value = np.zeros(tree.n_nodes)
                tree.value[good] = (k - 1.0) / k * num[good] / den[good]
            scores[:, c] += params.learning_rate * tree.value[leaf_of_row]
            round_trees.append(tree)
        rounds.append(round_trees)
    return rounds


def fit_gbm(X: np.ndarray, y: np.ndarray, params: GbmParams) -> GbmModel:
    """Gradient boosting on squared error (continuous targets): one score
    column starting at the mean of y."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 10:
        raise EstimationError("need at least 10 rows to boost")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise EstimationError("non-finite values in boosting data")
    base = np.array([y.mean()])
    return GbmModel(
        loss="squared-error",
        base_prediction=base,
        trees=_boost(X, y.reshape(-1, 1), base, params, newton=False),
        params=params,
        n_features=X.shape[1],
    )


def fit_gbm_classifier(X: np.ndarray, y: np.ndarray, params: GbmParams) -> GbmModel:
    """Multinomial gradient boosting for discrete treatments: one score
    column per sorted class, starting at the log class priors, fit to the
    one-hot labels with Newton leaf steps."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    labels = np.asarray(y).tolist()
    if len(labels) < 10:
        raise EstimationError("need at least 10 rows to boost")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise EstimationError("classification needs at least two classes")
    class_index = {c: i for i, c in enumerate(classes)}
    onehot = np.zeros((len(labels), len(classes)))
    onehot[np.arange(len(labels)), [class_index[v] for v in labels]] = 1.0
    base = np.log(onehot.mean(axis=0))
    return GbmModel(
        loss="multinomial-log-loss",
        base_prediction=base,
        trees=_boost(X, onehot, base, params, newton=True),
        params=params,
        n_features=X.shape[1],
        classes=classes,
    )
