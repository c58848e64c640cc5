"""Gradient-boosted regression trees, from scratch on numpy.

Two losses are supported: squared error for continuous targets and
multinomial log-loss for discrete treatments. Both run through one
stagewise round loop, ``_boost``: it presorts X once, fits one tree per
score column each round to targets minus scores (minus softmax scores
for log-loss) and, for log-loss only, replaces the leaf values with a
Newton step. Every tree grows on every row from that one presort.
``fit_gbm`` and ``fit_gbm_classifier`` only build the targets and base
scores. ``fit_gbm`` takes one target or a block of k: the k columns
share the presort and each keeps its own base and trees, the same bits
as k separate fits, so a multi-outcome cross-fit makes one GBM per fold
and block instead of one per column. Split search is exhaustive over
sorted unique thresholds (no histogram binning; the study tables are
small enough that exactness is affordable). Fitting draws no random
numbers: the same data and parameters give the same trees, bit for bit.

``_grow`` is the package's one CART kernel: ``fit_tree`` runs it on one
target column with unweighted rows, and ``cate_tree.fit_cate_tree`` runs
it on a matrix of effect components. It checks its row count and
targets and numbers nodes in preorder (a node, its left subtree, then
its right subtree); ``_presort``, the one design-prep call, rejects
non-finite features. The kernel keeps a node's sorted row indices as one
(d, n_node) array, so a node's split search over all d features is a
handful of whole-block numpy calls instead of d per-feature passes. A
cut between two equal values of a feature is no split. So when some
column of X repeats a value, each node also carries its (d, n_node)
block of sorted values, finds the real cuts (those between two distinct
values) in one comparison and scores only them: on the study designs,
whose participant-level columns and few-valued scores tie heavily, they
are a small share of the cuts. When no column repeats a value, as for
continuous covariates, every cut is real: the kernel skips the value
blocks and scores every cut in one dense block. Both ways give each
scored cut the same bits and break ties the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, ValidationError

_GAIN_EPS = 1e-12
_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class GbmParams:
    """Hyperparameters for one boosted model.

    Defaults follow common GBM practice; every run manifest records the
    values actually used. ``seed`` is recorded only: fitting draws no
    random numbers, so no fit depends on it.
    """

    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 5
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

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X."""
        return _leaf_index(X, self.feature, self.threshold, self.left, self.right)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]


def _presort(X: np.ndarray) -> tuple:
    """The design of a fit on X: ``(presort, xs)``, computed once per fit.

    ``presort`` is the stable argsort of every feature column as one
    (d, n) array, row j holding the row indices that sort column j.
    ``xs`` is the features in that order, row j being column j of X
    sorted, or None when no column of X repeats a value. Raises
    EstimationError when X holds a NaN or an infinity.
    """
    if not np.isfinite(X).all():
        raise EstimationError("non-finite values in tree training data")
    presort = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    xs = np.take_along_axis(X.T, presort, axis=1)
    # column by column: a tied column, common in study tables, ends the check
    if any((column[1:] <= column[:-1]).any() for column in xs):
        return presort, xs
    return presort, None


def _best_split(X, xs, Y, cols, min_leaf, up, down):
    """(score, parent_score, feature, n_left, threshold) of the best split
    of one node, or None.

    ``cols`` is the node's (d, n_node) block of sorted row indices, row j
    sorting feature j. ``xs`` is the matching block of feature values
    when X repeats a value in some column, and None when no column of X
    does. ``up`` is ``arange(n + 1.0)`` for the tree's n rows and
    ``down`` holds the same values in descending order. All d features
    are scanned at once: one cumulative sum of the gathered targets along
    each row, then scores for the candidate thresholds that leave at
    least ``min_leaf`` rows on each side. The score is sum over children
    and target columns of (sum y)^2 / n; bigger is better. Ties break
    toward the lowest feature index and then the lowest threshold
    (np.argmax keeps the first maximum of scores in row-major order). The
    left child is the first ``n_left`` entries of row ``feature``.

    A cut between two equal values cannot separate them. With ``xs``
    only the real cuts, where ``xs`` increases, are scored: each with
    the operations and counts the dense block uses at its position, so
    with the same bits, and in row-major order, so with the same ties. A
    node without a real cut has no split. With ``xs`` None every node's
    values strictly increase along each row, so every cut is real and
    the whole block is scored. ``xs`` feeds only the search for real
    cuts: the two values around the chosen cut are read from X.
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
    if xs is None:
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
        j, k = divmod(int(rs.argmax()), hi - lo)
        best = float(rs[j, k])
        k += lo
    else:
        # the real cuts as flat positions of the (d, n_node) block, in
        # row-major order; on the study designs' nodes they are mostly a
        # small share of the in-range cuts
        cut = np.zeros(cols.shape, dtype=bool)
        np.greater(xs[:, lo + 1 : hi + 1], xs[:, lo:hi], out=cut[:, lo:hi])
        at = cut.ravel().nonzero()[0]
        if not len(at):
            return None
        # np.divmod is several times slower than // on int64
        row = at // n_node
        left = at - row * n_node + 1.0
        # the dense block's operations on its entries at these positions,
        # with the same counts as floats: the same bits
        if Y.ndim == 1:
            ls = cs.ravel().take(at)
            rs = cs[:, -1].take(row)
        else:
            ls = cs.reshape(-1, cs.shape[2]).take(at, axis=0)
            rs = cs[:, -1].take(row, axis=0)
        rs -= ls
        ls *= ls
        rs *= rs
        if Y.ndim == 2:
            ls = ls.sum(axis=1)
            rs = rs.sum(axis=1)
        ls /= left
        rs /= n_node - left
        rs += ls
        i = int(rs.argmax())
        best = float(rs[i])
        j, k = divmod(int(at[i]), n_node)
    a, b = float(X[cols[j, k], j]), float(X[cols[j, k + 1], j])
    thr = 0.5 * (a + b)
    # the midpoint of adjacent doubles can round up to b, and of huge
    # values overflow to +inf or -inf; each would send every row one way
    if not a <= thr < b:
        thr = a
    return best, parent_score, j, k + 1, thr


def _check_targets(Y, what: str) -> None:
    """Raise unless the (n,) or (n, m) targets Y are finite and small
    enough that the split search's squared sums, up to m (n max|y|)^2,
    stay below a quarter of the float maximum."""
    limit = (_FLOAT_MAX / (Y.size // len(Y))) ** 0.5 / (2 * len(Y))
    top = np.abs(Y).max()  # NaN or inf when any target is
    if not top <= limit:
        raise EstimationError(
            f"{what}: targets up to {top:.3g} in magnitude would overflow the "
            f"split search's squared sums (limit {limit:.3g})" if np.isfinite(top)
            else f"non-finite values in {what}"
        )


def _grow(X, Y, design, max_depth, min_leaf):
    """Greedy least-squares CART on targets Y, (n,) or (n, m).

    Splits maximise the squared-error reduction summed over target
    columns, with an exhaustive scan of midpoints between sorted unique
    values. ``design`` is ``_presort(X)``; each node keeps its rows as
    one (d, n_node) block, row j sorted by feature j. A split marks the
    left child's rows by position in the split feature's row and
    partitions the block with one mask and ``compress``, which keeps
    every row's order. When X has ties the nodes also carry their blocks
    of sorted values, partitioned the same way, to find the real cuts.

    Raises EstimationError for fewer than ``2 * min_leaf`` rows or
    targets ``_check_targets`` rejects. Returns flat (feature, threshold,
    left, right) sequences in preorder, feature -1 marking a leaf, and
    each node's training rows: the root's in row order, every other
    node's in ``presort[0]`` order.
    """
    n = len(Y)
    if n < 2 * min_leaf:
        raise EstimationError(
            f"need at least {2 * min_leaf} rows to split with min_leaf={min_leaf}"
        )
    _check_targets(Y, "tree training data")
    presort, xs = design
    d = len(presort)
    up = np.arange(n + 1.0)
    down = up[::-1].copy()
    nodes, rows = [], []  # nodes: [feature, threshold, left, right] each
    go_left = np.zeros(n, dtype=bool)
    # stack entries: (parent id or -1, depth, sorted row indices, sorted
    # values or None); a node is numbered when it leaves the stack, and
    # the left child, pushed last, leaves it first: preorder
    stack = [(-1, 0, presort, xs)]
    while stack:
        parent, depth, cols, xs = stack.pop()
        node_id = len(nodes)
        nodes.append([-1, 0.0, -1, -1])
        rows.append(cols[0])
        if parent >= 0:
            link = nodes[parent]
            link[2 if link[2] < 0 else 3] = node_id
        best = _best_split(X, xs, Y, cols, min_leaf, up, down) if depth < max_depth else None
        if best is None:
            continue
        score, parent_score, j, n_left, thr = best
        if score <= parent_score + _GAIN_EPS * max(1.0, abs(parent_score)):
            continue
        nodes[node_id][:2] = j, thr
        go_left[cols[j, :n_left]] = True
        if depth + 1 < max_depth:
            mask = go_left[cols].ravel()
            for side in (~mask, mask):
                child_xs = None if xs is None else xs.compress(side).reshape(d, -1)
                stack.append((node_id, depth + 1, cols.compress(side).reshape(d, -1), child_xs))
        else:
            # children at max_depth are never searched: two leaves, numbered
            # right after their parent
            mask = go_left[cols[0]]
            nodes[node_id][2:] = node_id + 1, node_id + 2
            nodes += [[-1, 0.0, -1, -1], [-1, 0.0, -1, -1]]
            rows += [cols[0][mask], cols[0][~mask]]
        go_left[cols[j, :n_left]] = False
    rows[0] = np.arange(n)
    return (*zip(*nodes), rows)


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


def _fit_presorted(X, y, design, max_depth, min_leaf):
    """A CART tree on targets y from ``design``, the ``_presort(X)`` pair,
    and the leaf id of every row of y.

    Leaves predict the mean of their rows.
    """
    feature, threshold, left, right, rows = _grow(X, y, design, max_depth, min_leaf)
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
    ), leaf_of_row


def fit_tree(X: np.ndarray, targets: np.ndarray, max_depth: int = 3,
             min_leaf: int = 5) -> RegressionTree:
    """Greedy CART least-squares tree.

    Splits maximise squared-error reduction with an exhaustive threshold
    scan; leaves predict the mean of their rows.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be n x p and aligned with targets")
    return _fit_presorted(X, y, _presort(X), max_depth, min_leaf)[0]


@dataclass
class GbmModel:
    """A fitted gradient-boosted ensemble.

    ``trees`` holds one list per boosting round with one tree per score
    column: one per target column for squared error, one per class for
    log-loss. Scores are ``base_prediction`` (a (k,) array) plus
    learning_rate times the sum of tree outputs; predict(X) is the (n,)
    score column for a one-target regression, the (n, k) scores for a
    block of k targets, and the softmax class probabilities for
    classification.
    """

    loss: str  # "squared-error" | "multinomial-log-loss"
    base_prediction: np.ndarray  # (k,): each column's mean target, or per-class log priors
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
        """Point predictions (regression) or probability rows (classification).

        Regression returns (n,) for one score column and (n, k) for a
        block of k.
        """
        scores = self.raw_scores(X)
        if self.loss == "squared-error":
            return scores[:, 0] if scores.shape[1] == 1 else scores
        return _softmax(scores)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    design = _presort(X)
    scores = np.tile(base, (n, 1))
    rounds = []
    for _ in range(params.n_estimators):
        # column c's scores change only after its own tree is fit
        fitted = _softmax(scores) if newton else scores
        round_trees = []
        for c in range(k):
            # a contiguous residual column: take() copies a strided source per call
            rc = targets[:, c] - fitted[:, c]
            tree, leaf_of_row = _fit_presorted(
                X, rc, design, params.max_depth, params.min_leaf
            )
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
    """Gradient boosting on squared error (continuous targets).

    ``y`` is one (n,) target or an (n, k) block of k. Each column gets
    its own score column, starting at that column's mean, and its own
    tree per round; the columns share one presort of X. Column c's base
    and trees are bit for bit those of ``fit_gbm(X, y[:, c], params)``.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be n x p and y (n,) or (n, k) aligned with it")
    if len(y) < 10:
        raise EstimationError("need at least 10 rows to boost")
    targets = y.reshape(len(y), -1)
    base = np.empty(targets.shape[1])
    for c, column in enumerate(targets.T):
        # contiguous, so its limit and mean are exactly those of the
        # column boosted on its own
        column = np.ascontiguousarray(column)
        _check_targets(column, "boosting data")
        base[c] = column.mean()
    return GbmModel(
        loss="squared-error",
        base_prediction=base,
        trees=_boost(X, targets, base, params, newton=False),
        params=params,
        n_features=X.shape[1],
    )


def fit_gbm_classifier(X: np.ndarray, y: np.ndarray, params: GbmParams) -> GbmModel:
    """Multinomial gradient boosting for discrete treatments: one score
    column per sorted class, starting at the log class priors, fit to the
    one-hot labels with Newton leaf steps."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y)
    if y.ndim != 1 or X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be n x p and y (n,) aligned with it")
    labels = y.tolist()
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
