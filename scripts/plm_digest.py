"""Print the sha256 digests of acceptance criterion 1's PLM fits, one CATE tree
and the PLM generator's output.

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

The ``data`` line hashes what ``gen_plm_dataset`` returns for three
scenarios, one per generator path: criterion 1's continuous one (seed
1000), criterion 2's sloped one and criterion 3's discrete one. It covers
the column names, table values and categorical levels, and the oracle's
arrays and effect terms, so it pins the discrete branch that no fit above
reaches.

Usage: python scripts/plm_digest.py
"""

from __future__ import annotations

import hashlib
import json
import sys

from drivedml.boosting import GbmParams
from drivedml.cate_tree import render_tree
from drivedml.dml import ModelSpec
from drivedml.report import run_model_on_table
from drivedml.simulate import PlmScenario, gen_plm_dataset
from drivedml.study_data import NDRT_LEVELS

SEEDS = (0, 1, 2)
PARAMS = GbmParams(n_estimators=80, learning_rate=0.1, max_depth=3, min_leaf=20, seed=0)
# criteria 1, 2 and 3 of tests/test_acceptance.py
DATA_SCENARIOS = (
    PlmScenario(n=10000, effect_intercept=2.0, gamma=1.0, delta=1.0, seed=1000),
    PlmScenario(n=20000, effect_intercept=1.0, effect_slopes=(2.0,),
                gamma=1.0, delta=1.0, seed=77),
    PlmScenario(n=10000, kind="discrete", levels=tuple(NDRT_LEVELS),
                level_effects=(0.0, 2.0, 5.0, 9.0, 7.0, 4.0, 8.5),
                gamma=0.6, delta=1.0, seed=20),
)


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


def data_digest(scenarios) -> str:
    """sha256 over each scenario's table and oracle, numbers as raw float64 bytes."""
    h = hashlib.sha256()
    for scenario in scenarios:
        table, oracle = gen_plm_dataset(scenario)
        h.update(json.dumps([table.column_names, table.categorical_levels,
                             oracle.effect_intercept, list(oracle.effect_slopes),
                             table.values.shape, oracle.pointwise_cates.shape]).encode())
        for array in (table.values, oracle.true_ate, oracle.pointwise_cates,
                      oracle.naive_estimate, oracle.naive_se):
            h.update(array.astype("<f8").tobytes())
    return h.hexdigest()


def main() -> int:
    digests = plm_digests(SEEDS)
    print(f"seeds {' '.join(map(str, SEEDS))}")
    print(f"estimates {digests['estimates']}")
    print(f"cate_tree {digests['cate_tree']}")
    print(f"data {data_digest(DATA_SCENARIOS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
