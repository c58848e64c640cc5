"""All nine presets against estimates and CATE-tree splits stored in a golden file.

The golden file was captured before boosting and the CATE tree shared one
CART kernel; a refactor of the tree code must reproduce it. Values compare
at rtol 1e-9: a changed split choice moves them by far more, while BLAS
summation differences between machines stay below it.

Regenerate only for an intended change of results:
    PYTHONPATH=src python tests/test_preset_golden.py
"""

import json
from pathlib import Path

import numpy as np

from drivedml.boosting import GbmParams
from drivedml.presets import PRESET_NAMES
from drivedml.report import run_presets
from drivedml.simulate import gen_study_dataset, write_study_csv

GOLDEN = Path(__file__).parent / "golden" / "presets_seed7_5trees.json"
SEED = 7
TREES = 5
RTOL = 1e-9
KEYS = ("kind", "outcome", "treatment", "feature", "t0", "t1")


def _splits(node) -> list:
    """Preorder [split_feature, split_value, n] per node; leaves have no split."""
    here = [[node.get("split_feature"), node.get("split_value"), node["n"]]]
    if "left" in node:
        return here + _splits(node["left"]) + _splits(node["right"])
    return here


def collect(tmp: Path) -> dict:
    data = tmp / "study.csv"
    write_study_csv(gen_study_dataset(seed=SEED, missing_rows=62), data)
    params = GbmParams(n_estimators=TREES)
    manifest = run_presets(data, PRESET_NAMES, tmp / "out", seed=SEED,
                           outcome_params=params, treatment_params=params)
    out = {}
    for run in manifest.models:
        tree = run.cate_tree.to_jsonable() if run.cate_tree is not None else None
        out[run.spec.name] = {
            "estimates": [[getattr(e, k) for k in KEYS] + [e.estimation, e.se]
                          for e in run.estimates],
            "cate_splits": _splits(tree["root"]) if tree else None,
        }
    return out


def test_presets_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = collect(tmp_path)
    assert list(got) == list(golden) == list(PRESET_NAMES)
    for name, want in golden.items():
        have = got[name]
        assert [r[:len(KEYS)] for r in have["estimates"]] == \
            [r[:len(KEYS)] for r in want["estimates"]], name
        np.testing.assert_allclose(
            [r[len(KEYS):] for r in have["estimates"]],
            [r[len(KEYS):] for r in want["estimates"]],
            rtol=RTOL, atol=0, err_msg=name,
        )
        if want["cate_splits"] is None:
            assert have["cate_splits"] is None, name
            continue
        assert [(f, n) for f, _, n in have["cate_splits"]] == \
            [(f, n) for f, _, n in want["cate_splits"]], name
        np.testing.assert_allclose(
            [np.nan if v is None else v for _, v, _ in have["cate_splits"]],
            [np.nan if v is None else v for _, v, _ in want["cate_splits"]],
            rtol=RTOL, atol=0, equal_nan=True, err_msg=name,
        )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(json.dumps(collect(Path(d)), indent=1) + "\n")
