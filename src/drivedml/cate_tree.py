"""Depth-limited regression tree over pointwise treatment effects.

Summarizes heterogeneity: each node carries the mean and standard
deviation of every effect component (treatment x outcome) for its sample
subset, colored by the shared sign of the means. The tree is grown by
the boosting module's CART kernel; this module adds the node statistics
and exports to Graphviz DOT text and a lossless JSON structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .boosting import _check_targets, _grow, _leaf_index, _presort, _sorted_columns
from .errors import EstimationError, ValidationError


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

    def total_within_deviation(self, cates: np.ndarray, features: np.ndarray) -> float:
        """Sum over leaves and components of squared deviation from leaf means."""
        assign = self.apply(features)
        total = 0.0
        for i, nd in enumerate(self.nodes):
            if not nd.is_leaf:
                continue
            sub = cates[assign == i]
            if len(sub):
                total += float(((sub - sub.mean(axis=0)) ** 2).sum())
        return total

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

    Grown by the boosting module's CART kernel. The split objective adds
    the per-component gains. Ties break to the lowest feature index, then
    the lowest threshold. Node statistics use the sample (n-1) standard
    deviation.
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
    if n < 2 * min_leaf:
        raise EstimationError(f"need at least {2 * min_leaf} rows (min_leaf={min_leaf})")
    if not np.isfinite(X).all():
        raise EstimationError("non-finite values in CATE tree input")
    _check_targets(cates, "CATE tree input")
    d = X.shape[1]
    names = list(feature_names) if feature_names is not None else [
        f"x{j + 1}" for j in range(d)
    ]
    shape = tuple(component_shape) if component_shape else (m, 1)
    if shape[0] * shape[1] != m:
        raise ValidationError("component_shape does not cover all components")

    presort = _presort(X)
    feature, threshold, left, right, rows = _grow(
        X, _sorted_columns(X, presort), cates, max_depth, min_leaf, presort
    )
    nodes = []
    for i, r in enumerate(rows):
        sub = cates[np.sort(r)]  # sum in row order, not feature-0 order
        mean = sub.mean(axis=0)
        std = sub.std(axis=0, ddof=1) if len(sub) > 1 else np.zeros(m)
        nodes.append(CateNode(
            feature=feature[i], threshold=float(threshold[i]), n=len(r),
            mean=mean, std=std, color=_sign_color(mean),
            left=left[i], right=right[i],
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
        return _render_json(tree)
    raise ValidationError(f"unknown render format {fmt!r}")


def _render_dot(tree: CateTree) -> str:
    lines = ["digraph cate_tree {", '  node [shape=box, style=filled];']
    for i, nd in enumerate(tree.nodes):
        label_lines = []
        if not nd.is_leaf:
            label_lines.append(f"{tree.feature_names[nd.feature]} <= {nd.threshold:g}")
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


def _render_json(tree: CateTree) -> str:
    return json.dumps(
        {
            "feature_names": tree.feature_names,
            "component_shape": list(tree.component_shape),
            "component_labels": tree.component_labels,
            "root": _node_to_dict(tree, 0),
        },
        indent=2,
    )


def cate_tree_from_json(text: str) -> CateTree:
    """Rebuild a CateTree from its JSON rendering (lossless round trip)."""
    data = json.loads(text)
    names = data["feature_names"]
    nodes: list[CateNode] = []

    def walk(d: dict) -> int:
        idx = len(nodes)
        nodes.append(CateNode(
            feature=-1, threshold=0.0, n=int(d["n"]),
            mean=np.asarray(d["cate_mean"], dtype=np.float64),
            std=np.asarray(d["cate_std"], dtype=np.float64),
            color=d["color"],
        ))
        if "split_feature" in d:
            nodes[idx].feature = names.index(d["split_feature"])
            nodes[idx].threshold = float(d["split_value"])
            nodes[idx].left = walk(d["left"])
            nodes[idx].right = walk(d["right"])
        return idx

    walk(data["root"])
    return CateTree(
        nodes=nodes,
        feature_names=names,
        component_shape=tuple(data["component_shape"]),
        component_labels=data.get("component_labels", []),
    )
