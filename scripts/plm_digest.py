"""Print the sha256 digests of acceptance criterion 1's PLM fits and one CATE tree.

The continuous twin of ``preset_digest.py``. For each seed s it draws
criterion 1's scenario, ``PlmScenario(n=10000, effect_intercept=2,
gamma=1, delta=1, seed=1000 + s)``, and fits it with criterion 1's
learners (80 trees, depth 3, min_leaf 20, k = 5, model seed 2000 + s)
through ``report.run_model_on_table``. Its covariates never repeat a
value, so every tree runs the CART kernel's tie-free path.

It hashes the ATE and coefficient rows (kind, feature, estimate and SE,
the numbers as ``float.hex``) of all seeds, and the first seed's CATE
tree as rendered JSON. Two commits whose digests match produce
bit-identical estimates and trees.

Usage: python scripts/plm_digest.py
"""

from __future__ import annotations

import hashlib
import sys

from drivedml.boosting import GbmParams
from drivedml.cate_tree import render_tree
from drivedml.dml import ModelSpec
from drivedml.report import run_model_on_table
from drivedml.simulate import PlmScenario, gen_plm_dataset

SEEDS = (0, 1, 2)
PARAMS = GbmParams(n_estimators=80, learning_rate=0.1, max_depth=3, min_leaf=20, seed=0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plm_digests(seeds) -> dict:
    """{"estimates": sha256, "cate_tree": sha256} over the seeds' fits."""
    rows, trees = [], []
    for s in seeds:
        table, _ = gen_plm_dataset(PlmScenario(
            n=10000, effect_intercept=2.0, gamma=1.0, delta=1.0, seed=1000 + s,
        ))
        spec = ModelSpec(
            name="plm", features=("x1",), outcomes=("outcome",),
            treatments=("treatment",), confounders=("w1",),
            treatment_kind="continuous", k_folds=5, seed=2000 + s,
            outcome_params=PARAMS, treatment_params=PARAMS,
        )
        result, tree = run_model_on_table(table, spec)
        rows += [f"{s} {e.kind} {e.feature} {e.estimation.hex()} {e.se.hex()}"
                 for e in [*result.ates, *result.coefficients]]
        trees.append(render_tree(tree, "json"))
    return {"estimates": _sha256("\n".join(rows)), "cate_tree": _sha256(trees[0])}


def main() -> int:
    digests = plm_digests(SEEDS)
    print(f"seeds {' '.join(map(str, SEEDS))}")
    print(f"estimates {digests['estimates']}")
    print(f"cate_tree {digests['cate_tree']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
