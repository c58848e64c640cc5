"""Check the nine digests of the three digest scripts against pinned values.

Runs ``preset_digest.preset_digests(7, 5)``, ``plm_digest.plm_digests(SEEDS)``,
``plm_digest.data_digest(DATA_SCENARIOS)`` and
``extract_digest.extract_digests()``, the same calls their own command
lines make, and compares each digest with the value pinned in
``PINNED``. Prints one line per digest, ``ok`` or ``moved <old> -> <new>``,
and exits 1 if any digest moved.

The pinned values hold for one numpy/OpenBLAS build: numpy 2.4.6 with
its bundled OpenBLAS 0.3.31 on x86-64. Another build can move the
floating-point digests in their last bits, within the golden tests'
rtol of 1e-9; there, run the three scripts at two commits and compare
their output instead.

Usage: python scripts/check_digests.py
"""

from __future__ import annotations

import sys

import extract_digest
import plm_digest
import preset_digest

PINNED = {
    "preset_digest.py --seed 7 --trees 5 estimates":
        "f56eedfe31b92fb744dbeffed6a130abddd5659d4be22861e269e628b29b1a61",
    "preset_digest.py --seed 7 --trees 5 cate_tree":
        "ccc85647adefd29cb8c2fb0a5ae44a2fe1b5db592255666171bb867a924f3858",
    "preset_digest.py --seed 7 --trees 5 outputs":
        "4e9aac3867791f7578d7c8867589dc985e9573d08b328358df03552f15dc962d",
    "plm_digest.py estimates":
        "7a6014062c450ba16d5a0e59ac06e2aff91678a3b337a5a8806981e52f0f2658",
    "plm_digest.py cate_tree":
        "a95e9d1942a6d38da88203a8d54a0301c6b2c9cf0d37aba14ad1defed122dd67",
    "plm_digest.py data":
        "a981853169f3334912660116d02af6b6a83ebfbb0ef16cfee0f99a1706be2e3d",
    "extract_digest.py csv":
        "170a62890f05cb39e2d703b42569d398de746802a87dd2c9614d8560afee4a9a",
    "extract_digest.py loaded":
        "ff5c318bf28d18adae0219972fa542a450d75c20956d16d87109e9a0bb61aa13",
    "extract_digest.py features":
        "873c1ca6ce980da5c107baf09c8b23bff6b67e179f0859c327925c8ad1e9b8d3",
}


def current_digests() -> dict:
    """Every digest line of the three scripts, keyed as in ``PINNED``."""
    plm = plm_digest.plm_digests(plm_digest.SEEDS)
    plm["data"] = plm_digest.data_digest(plm_digest.DATA_SCENARIOS)
    scripts = {
        "preset_digest.py --seed 7 --trees 5": preset_digest.preset_digests(7, 5),
        "plm_digest.py": plm,
        "extract_digest.py": extract_digest.extract_digests(),
    }
    return {f"{script} {key}": value
            for script, digests in scripts.items() for key, value in digests.items()}


def main() -> int:
    digests = current_digests()
    moved = False
    for line, old in PINNED.items():
        new = digests.get(line)
        if new == old:
            print(f"{line} ok")
        else:
            print(f"{line} moved {old} -> {new}")
            moved = True
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
