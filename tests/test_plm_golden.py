"""A small continuous PLM fit against estimates and CATE-tree splits in a golden file.

Every study design has participant-level columns, so its covariates
repeat values and the preset golden file never runs the CART kernel's
path for tie-free columns. This PLM's covariates are continuous draws
with no repeated value, so its nuisance GBMs and its CATE tree run only
that path. Values compare at rtol 1e-9, as in ``test_preset_golden``:
a changed split choice moves them by far more, while BLAS summation
differences between machines stay below it.

Regenerate only for an intended change of results:
    PYTHONPATH=src python tests/test_plm_golden.py
"""

import json
from pathlib import Path

import numpy as np

from drivedml.boosting import GbmParams
from drivedml.dml import ModelSpec
from drivedml.report import run_model_on_table
from drivedml.simulate import PlmScenario, gen_plm_dataset
from test_preset_golden import _splits

GOLDEN = Path(__file__).parent / "golden" / "plm_continuous.json"
RTOL = 1e-9
KEYS = ("kind", "outcome", "treatment", "feature")
PARAMS = GbmParams(n_estimators=20, max_depth=3, min_leaf=20, seed=0)


def _table():
    table, _ = gen_plm_dataset(PlmScenario(
        n=2000, effect_intercept=2.0, effect_slopes=(1.0,), gamma=1.0, delta=1.0, seed=31,
    ))
    return table


def collect() -> dict:
    spec = ModelSpec(
        name="plm", features=("x1",), outcomes=("outcome",),
        treatments=("treatment",), confounders=("w1",),
        treatment_kind="continuous", k_folds=5, seed=32,
        outcome_params=PARAMS, treatment_params=PARAMS,
    )
    result, tree = run_model_on_table(_table(), spec)
    return {
        "estimates": [[getattr(e, k) for k in KEYS] + [e.estimation, e.se]
                      for e in [*result.ates, *result.coefficients]],
        "cate_splits": _splits(tree.to_jsonable()["root"]),
    }


def test_covariates_have_no_ties():
    table = _table()
    X = np.column_stack([table.column("x1"), table.column("w1")])
    assert (np.diff(np.sort(X, axis=0), axis=0) > 0).all()


def test_plm_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = collect()
    assert [r[:len(KEYS)] for r in got["estimates"]] == \
        [r[:len(KEYS)] for r in golden["estimates"]]
    np.testing.assert_allclose(
        [r[len(KEYS):] for r in got["estimates"]],
        [r[len(KEYS):] for r in golden["estimates"]],
        rtol=RTOL, atol=0,
    )
    assert [(f, n) for f, _, n in got["cate_splits"]] == \
        [(f, n) for f, _, n in golden["cate_splits"]]
    np.testing.assert_allclose(
        [np.nan if v is None else v for _, v, _ in got["cate_splits"]],
        [np.nan if v is None else v for _, v, _ in golden["cate_splits"]],
        rtol=RTOL, atol=0, equal_nan=True,
    )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1) + "\n")
