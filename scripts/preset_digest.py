"""Print the sha256 digests of all nine presets' estimates, CATE trees and outputs.

Runs every preset through ``report.run_presets`` (with residual export)
on the simulated study ``gen_study_dataset(seed, missing_rows=62)`` and
hashes the manifest's ``estimates`` lists and ``cate_tree`` lists, each
as ``json.dumps(..., sort_keys=True)``, and the ``outputs``: the relative
path and bytes of every other file in the run directory (tables, CSVs,
tree JSON and DOT, residuals), in path order. Two commits whose digests
match produce bit-identical estimates, heterogeneity trees and files.

Usage: python scripts/preset_digest.py [--seed 7] [--trees 5]

``--trees`` sets ``n_estimators`` of every nuisance GBM; omit it to run
the presets' shipped learners (100 trees).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from drivedml.boosting import GbmParams
from drivedml.presets import PRESET_NAMES
from drivedml.report import run_presets
from drivedml.simulate import gen_study_dataset, write_study_csv


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _outputs_sha256(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(path.relative_to(run_dir).as_posix().encode("utf-8") + b"\0")
            data = path.read_bytes()
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def preset_digests(seed: int, trees: int | None) -> dict:
    """{"estimates", "cate_tree", "outputs"}: sha256 each, of one all-preset run."""
    params = GbmParams(n_estimators=trees) if trees is not None else None
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "study.csv"
        write_study_csv(gen_study_dataset(seed=seed, missing_rows=62), data)
        run_presets(
            data, list(PRESET_NAMES), Path(tmp) / "run", seed=seed,
            outcome_params=params, treatment_params=params, export_residuals=True,
        )
        models = json.loads((Path(tmp) / "run" / "manifest.json").read_text())["models"]
        outputs = _outputs_sha256(Path(tmp) / "run")
    return {
        "estimates": _sha256([m["estimates"] for m in models]),
        "cate_tree": _sha256([m["cate_tree"] for m in models]),
        "outputs": outputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="study and run seed")
    parser.add_argument("--trees", type=int, default=None,
                        help="trees per nuisance GBM (default: the presets' own)")
    args = parser.parse_args(argv)
    digests = preset_digests(args.seed, args.trees)
    trees = args.trees if args.trees is not None else "shipped"
    print(f"seed {args.seed}, trees {trees}")
    print(f"estimates {digests['estimates']}")
    print(f"cate_tree {digests['cate_tree']}")
    print(f"outputs {digests['outputs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
