import json
import re

import numpy as np
import pytest

from drivedml.cate_tree import (
    cate_tree_from_json,
    fit_cate_tree,
    render_tree,
)
from drivedml.errors import EstimationError, ValidationError


def test_constant_effects_single_node():
    X = np.random.default_rng(0).normal(size=(100, 2))
    cates = np.full((100, 1), 2.0)
    tree = fit_cate_tree(X, cates, max_depth=3, min_leaf=10)
    assert len(tree.nodes) == 1
    assert tree.root.mean[0] == 2.0
    assert tree.root.std[0] == 0.0
    assert tree.root.color == "positive"


def test_step_function_recovered():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(1000, 1))
    cates = np.where(x[:, 0] < 0, 0.0, 3.0).reshape(-1, 1)
    tree = fit_cate_tree(x, cates, max_depth=1, min_leaf=10)
    assert abs(tree.root.threshold) <= 0.05
    left = tree.nodes[tree.root.left]
    right = tree.nodes[tree.root.right]
    assert abs(left.mean[0] - 0.0) <= 0.05
    assert abs(right.mean[0] - 3.0) <= 0.05
    assert left.n + right.n == tree.root.n == 1000


def test_opposite_sign_components_are_mixed():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(400, 1))
    up = np.where(x[:, 0] < 0, 1.0, 2.0)
    down = np.where(x[:, 0] < 0, -2.0, -1.0)
    tree = fit_cate_tree(x, np.column_stack([up, down]), max_depth=1, min_leaf=10)
    assert tree.root.color == "mixed"


def test_root_mean_is_global_mean_exactly():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(321, 2))
    cates = rng.normal(size=(321, 3))
    tree = fit_cate_tree(x, cates, max_depth=2, min_leaf=20)
    assert np.array_equal(tree.root.mean, cates.mean(axis=0))


def test_refinement_monotone_in_depth():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(600, 2))
    cates = (np.sin(3 * x[:, 0]) + x[:, 1] ** 2).reshape(-1, 1)
    deviations = []
    for depth in range(5):
        tree = fit_cate_tree(x, cates, max_depth=depth, min_leaf=5)
        # each leaf's squared deviation from its mean, from its n and ddof=1 std
        deviations.append(sum(float(((leaf.n - 1) * leaf.std**2).sum())
                              for leaf in tree.leaves()))
    assert all(b <= a + 1e-9 for a, b in zip(deviations, deviations[1:]))


def test_row_permutation_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(500, 2))
    cates = (x[:, 0] * 2 + rng.normal(size=500)).reshape(-1, 1)
    tree1 = fit_cate_tree(x, cates, max_depth=3, min_leaf=10)
    perm = rng.permutation(500)
    tree2 = fit_cate_tree(x[perm], cates[perm], max_depth=3, min_leaf=10)
    assert len(tree1.nodes) == len(tree2.nodes)
    for a, b in zip(tree1.nodes, tree2.nodes):
        assert a.feature == b.feature
        assert a.threshold == b.threshold
        assert a.n == b.n
        assert np.allclose(a.mean, b.mean, rtol=1e-12)


def test_leaf_partition_average_identity():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(800, 2))
    cates = np.column_stack([x[:, 0], x[:, 1] ** 2])
    tree = fit_cate_tree(x, cates, max_depth=3, min_leaf=10)
    leaves = tree.leaves()
    stacked = sum(leaf.n * leaf.mean for leaf in leaves) / tree.root.n
    assert np.abs(stacked - tree.root.mean).max() < 1e-9


def test_dot_single_leaf():
    x = np.random.default_rng(7).normal(size=(50, 1))
    tree = fit_cate_tree(x, np.full((50, 1), 1.5), max_depth=2, min_leaf=5)
    dot = render_tree(tree, "dot")
    assert dot.count("[label=") == 1
    assert "->" not in dot


def test_dot_depth_one_layout():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=(200, 1))
    cates = np.where(x[:, 0] < 0, -1.0, 1.0).reshape(-1, 1)
    tree = fit_cate_tree(x, cates, max_depth=1, min_leaf=10,
                         feature_names=["Trust"])
    dot = render_tree(tree, "dot")
    assert dot.count("[label=") == 3
    assert dot.count("->") == 2
    lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert lines[0].endswith(f"n{tree.root.left};")  # condition-true first
    assert "Trust <=" in dot
    assert "CATE mean" in dot and "CATE std" in dot


def test_dot_escapes_quotes_and_backslashes_in_names():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=(200, 1))
    cates = np.where(x[:, 0] < 0, -1.0, 1.0).reshape(-1, 1)
    name = 'Trust "TiA" \\ C:\\n'
    tree = fit_cate_tree(x, cates, max_depth=1, min_leaf=10, feature_names=[name])
    dot = render_tree(tree, "dot")
    assert 'label="Trust \\"TiA\\" \\\\ C:\\\\n <= ' in dot
    # every label is one DOT quoted string; unescaping it gives the name back
    labels = re.findall(r'\[label="((?:[^"\\]|\\.)*)", fillcolor=\w+\];$', dot, re.M)
    assert len(labels) == dot.count("[label=") == 3
    assert re.sub(r"\\(.)", r"\1", labels[0]).startswith(name + " <= ")


def test_json_round_trip_exact():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 2))
    cates = np.column_stack([np.sin(x[:, 0]), x[:, 1]])
    tree = fit_cate_tree(x, cates, max_depth=2, min_leaf=10,
                         feature_names=["Trust", "Age"],
                         component_shape=(2, 1),
                         component_labels=["a", "b"])
    text = render_tree(tree, "json")
    clone = cate_tree_from_json(text)
    assert len(clone.nodes) == len(tree.nodes)
    order = _walk_pairs(tree, clone)
    for a, b in order:
        assert a.feature == b.feature
        assert a.threshold == b.threshold
        assert a.n == b.n
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)
        assert a.color == b.color
    assert json.loads(text) == json.loads(render_tree(clone, "json"))

    # nodes are stored in preorder, so a fitted tree and its parsed clone
    # agree index for index
    deep = fit_cate_tree(x, cates, max_depth=3, min_leaf=10)
    clone = cate_tree_from_json(render_tree(deep, "json"))
    assert len(deep.nodes) > 7
    assert len(clone.nodes) == len(deep.nodes)
    for a, b in zip(deep.nodes, clone.nodes):
        assert (a.feature, a.threshold, a.left, a.right, a.n) == \
            (b.feature, b.threshold, b.left, b.right, b.n)
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.std.tobytes() == b.std.tobytes()


def _walk_pairs(t1, t2):
    pairs = []

    def rec(i, j):
        a, b = t1.nodes[i], t2.nodes[j]
        pairs.append((a, b))
        if not a.is_leaf:
            rec(a.left, b.left)
            rec(a.right, b.right)

    rec(0, 0)
    return pairs


def test_errors():
    x = np.zeros((5, 1))
    with pytest.raises(EstimationError):
        fit_cate_tree(x, np.zeros((5, 1)), min_leaf=10)
    tree = fit_cate_tree(np.zeros((40, 1)), np.zeros((40, 1)), min_leaf=10)
    with pytest.raises(ValidationError, match="format"):
        render_tree(tree, "svg")


def test_non_finite_input_rejected():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(100, 2))
    cates = rng.normal(size=(100, 1))
    bad_cates = cates.copy()
    bad_cates[17, 0] = np.nan
    with pytest.raises(EstimationError, match="non-finite"):
        fit_cate_tree(x, bad_cates, max_depth=2, min_leaf=10)
    bad_x = x.copy()
    bad_x[3, 1] = np.inf
    with pytest.raises(EstimationError, match="non-finite"):
        fit_cate_tree(bad_x, cates, max_depth=2, min_leaf=10)
