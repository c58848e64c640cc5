"""Depth-limited regression tree over pointwise treatment effects.

Summarizes heterogeneity: each node carries the mean and standard
deviation of every effect component (treatment x outcome) for its sample
subset, colored by the shared sign of the means. The tree is grown by
the boosting module's CART kernel, which checks its input and numbers
nodes in preorder (a node, then its left subtree, then its right
subtree); this module adds the node statistics and exports to Graphviz
DOT text and a lossless JSON structure, whose form only
``CateTree.to_jsonable`` and ``CateTree.from_jsonable`` know. The JSON
form nests nodes in that same preorder, so a fitted tree, its JSON and
the tree parsed back agree index for index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .boosting import _grow, _leaf_index, _presort
from .errors import ValidationError, checked_json


@dataclass
class CateNode:
    feature: int              # -1 for leaves
    threshold: float
    n: int
    mean: np.ndarray          # one entry per effect component
    std: np.ndarray
    color: str                # "positive" | "negative" | "mixed"
    left: int = -1            # child index; condition-true branch
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class CateTree:
    nodes: list
    feature_names: list
    component_shape: tuple     # (rows, cols) layout of the component vector
    component_labels: list = field(default_factory=list)

    @property
    def root(self) -> CateNode:
        return self.nodes[0]

    def leaves(self) -> list:
        return [nd for nd in self.nodes if nd.is_leaf]

    def to_jsonable(self) -> dict:
        """The JSON form: names, component layout and the nested root node."""
        return {
            "feature_names": self.feature_names,
            "component_shape": list(self.component_shape),
            "component_labels": self.component_labels,
            "root": _node_to_dict(self, 0),
        }

    @classmethod
    def from_jsonable(cls, d) -> "CateTree":
        """Rebuild a tree from its JSON form (a lossless round trip).

        Raises ValidationError naming the key when ``d`` is not that form:
        a key missing, unknown or of the wrong JSON type, a split node
        without all four split keys, a split feature not in
        ``feature_names``, or a mean or std without one number per
        component.
        """
        d = checked_json(_TreeForm, d)
        names, shape = d["feature_names"], d["component_shape"]
        labels = d.get("component_labels", [])
        for key, values in (("feature_names", names), ("component_labels", labels)):
            if not all(isinstance(v, str) for v in values):
                raise ValidationError(f"key {key!r} must list strings, got {values!r}")
        if len(shape) != 2 or not all(type(v) is int and v > 0 for v in shape):
            raise ValidationError(
                f"key 'component_shape' must list two positive integers, got {shape!r}"
            )
        m = shape[0] * shape[1]
        nodes: list[CateNode] = []

        def walk(doc) -> int:
            nd = checked_json(_NodeForm, doc)
            if nd["color"] not in _FILL:
                raise ValidationError(
                    f"key 'color' must be one of {list(_FILL)}, got {nd['color']!r}"
                )
            idx = len(nodes)
            node = CateNode(
                feature=-1, threshold=0.0, n=nd["n"],
                mean=_vector(nd["cate_mean"], m, "cate_mean"),
                std=_vector(nd["cate_std"], m, "cate_std"), color=nd["color"],
            )
            nodes.append(node)
            missing = [key for key in _SPLIT_KEYS if nd.get(key) is None]
            if len(missing) < len(_SPLIT_KEYS):
                if missing:
                    raise ValidationError(f"split node missing key {missing[0]!r}")
                if nd["split_feature"] not in names:
                    raise ValidationError(
                        f"key 'split_feature' must be one of feature_names {names}, "
                        f"got {nd['split_feature']!r}"
                    )
                node.feature = names.index(nd["split_feature"])
                node.threshold = float(nd["split_value"])
                node.left = walk(nd["left"])
                node.right = walk(nd["right"])
            return idx

        walk(d["root"])
        return cls(nodes=nodes, feature_names=names, component_shape=tuple(shape),
                   component_labels=labels)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Leaf index for every row of features."""
        nodes = self.nodes
        return _leaf_index(
            np.asarray(features, dtype=np.float64),
            np.asarray([nd.feature for nd in nodes], dtype=np.int64),
            np.asarray([nd.threshold for nd in nodes], dtype=np.float64),
            np.asarray([nd.left for nd in nodes], dtype=np.int64),
            np.asarray([nd.right for nd in nodes], dtype=np.int64),
        )


@dataclass
class _TreeForm:
    """The keys of a tree's JSON form and the JSON types of their values."""

    feature_names: list
    component_shape: list
    root: dict
    component_labels: list = field(default_factory=list)


@dataclass
class _NodeForm:
    """The keys of one node of the JSON form; a split node has all four
    split keys, a leaf none."""

    n: int
    cate_mean: list
    cate_std: list
    color: str
    split_feature: str | None = None
    split_value: float | None = None
    left: dict | None = None
    right: dict | None = None


_SPLIT_KEYS = ("split_feature", "split_value", "left", "right")


def _vector(values: list, m: int, key: str) -> np.ndarray:
    if len(values) != m or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ValidationError(f"key {key!r} must list {m} numbers, one per component")
    return np.asarray(values, dtype=np.float64)


def _sign_color(mean: np.ndarray) -> str:
    if (mean > 0).all():
        return "positive"
    if (mean < 0).all():
        return "negative"
    return "mixed"


def fit_cate_tree(
    features: np.ndarray,
    pointwise_cates: np.ndarray,
    max_depth: int = 3,
    min_leaf: int = 10,
    feature_names=None,
    component_shape: tuple | None = None,
    component_labels=None,
) -> CateTree:
    """CART over effect vectors, minimizing summed squared deviation.

    Grown by the boosting module's CART kernel, which raises
    EstimationError for too few rows or non-finite input and returns the
    nodes in preorder. The split objective adds the per-component gains.
    Ties break to the lowest feature index, then the lowest threshold, on
    the computed scores: the kernel sums each feature's rows in that
    feature's sorted order, so two mathematically equal scores can differ
    in the last bit, and then the larger wins. At preset b's node 12, Age
    and DriveE (both constant within a participant) induce the same
    partition, and DriveE wins this way. Node statistics use the sample
    (n-1) standard deviation.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    cates = np.asarray(pointwise_cates, dtype=np.float64)
    if cates.ndim == 1:
        cates = cates.reshape(-1, 1)
    n, m = cates.shape
    if len(X) != n:
        raise ValidationError("features and pointwise effects misaligned")
    if m < 1:
        raise ValidationError("need at least one effect component")
    d = X.shape[1]
    names = list(feature_names) if feature_names is not None else [
        f"x{j + 1}" for j in range(d)
    ]
    shape = tuple(component_shape) if component_shape else (m, 1)
    if shape[0] * shape[1] != m:
        raise ValidationError("component_shape does not cover all components")

    feature, threshold, left, right, rows = _grow(X, cates, _presort(X), max_depth, min_leaf)
    nodes = []
    for i, r in enumerate(rows):
        sub = cates[np.sort(r)]  # sum in row order, not feature-0 order
        mean = sub.mean(axis=0)
        std = sub.std(axis=0, ddof=1) if len(sub) > 1 else np.zeros(m)
        nodes.append(CateNode(
            feature=feature[i], threshold=float(threshold[i]), n=len(r),
            mean=mean, std=std, color=_sign_color(mean), left=left[i], right=right[i],
        ))
    return CateTree(
        nodes=nodes,
        feature_names=names,
        component_shape=shape,
        component_labels=list(component_labels) if component_labels else [],
    )


def _format_rows(vector: np.ndarray, shape: tuple) -> list:
    grid = np.asarray(vector).reshape(shape)
    return [" ".join(f"{v:.3f}" for v in row) for row in grid]


_FILL = {"positive": "palegreen", "negative": "lightcoral", "mixed": "lightgrey"}


def render_tree(tree: CateTree, fmt: str) -> str:
    """Serialize a fitted tree to 'dot' (Graphviz) or 'json' text."""
    if fmt == "dot":
        return _render_dot(tree)
    if fmt == "json":
        return json.dumps(tree.to_jsonable(), indent=2)
    raise ValidationError(f"unknown render format {fmt!r}")


def _dot_escaped(text: str) -> str:
    """``text`` escaped for a DOT double-quoted string: each backslash and
    double quote gets a backslash, so Graphviz reads ``text`` back."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _render_dot(tree: CateTree) -> str:
    lines = ["digraph cate_tree {", '  node [shape=box, style=filled];']
    for i, nd in enumerate(tree.nodes):
        label_lines = []
        if not nd.is_leaf:
            name = _dot_escaped(tree.feature_names[nd.feature])
            label_lines.append(f"{name} <= {nd.threshold:g}")
        label_lines.append(f"n = {nd.n}")
        label_lines.append("CATE mean")
        label_lines.extend(_format_rows(nd.mean, tree.component_shape))
        label_lines.append("CATE std")
        label_lines.extend(_format_rows(nd.std, tree.component_shape))
        label = "\\n".join(label_lines)
        lines.append(f'  n{i} [label="{label}", fillcolor={_FILL[nd.color]}];')
    for i, nd in enumerate(tree.nodes):
        if nd.is_leaf:
            continue
        # condition-true branch first (left)
        lines.append(f"  n{i} -> n{nd.left};")
        lines.append(f"  n{i} -> n{nd.right};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_to_dict(tree: CateTree, idx: int) -> dict:
    nd = tree.nodes[idx]
    d = {
        "n": nd.n,
        "cate_mean": nd.mean.tolist(),
        "cate_std": nd.std.tolist(),
        "color": nd.color,
    }
    if not nd.is_leaf:
        d["split_feature"] = tree.feature_names[nd.feature]
        d["split_value"] = nd.threshold
        d["left"] = _node_to_dict(tree, nd.left)
        d["right"] = _node_to_dict(tree, nd.right)
    return d

