"""The raw-signal path's features and R-peak times against a golden file.

The drives are the ones ``scripts/extract_digest.py`` hashes (imported
by path, so there is one drive list): a constant RR interval whose LF/HF
is NaN, scripted RR and breath cycles, and a 250 Hz recording with mains
noise. Each goes through the CSV writers and readers and
``extract_drive_features``. Key order must match exactly, since it is
the order ``drivedml extract`` writes and ``--append-to`` adds columns
in. Values compare at rtol 1e-9 with NaN matching NaN, as in
``test_preset_golden``.

Regenerate only for an intended change of results:
    PYTHONPATH=src python scripts/extract_digest.py --dump tests/golden/extract_features.json
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from drivedml.study_data import SYMBOL_VARS

GOLDEN = Path(__file__).parent / "golden" / "extract_features.json"
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "extract_digest.py"
RTOL = 1e-9


def _load_script():
    spec = importlib.util.spec_from_file_location("extract_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dumped():
    script = _load_script()
    dump = {}
    script.extract_digests(dump)
    return script, dump


def test_golden_covers_the_scripts_drives(dumped):
    script, dump = dumped
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [name for name, *_ in script.DRIVES] == list(dump)


def test_four_channels_fill_every_symbol_column(dumped):
    _, dump = dumped
    for drive in dump.values():
        assert sorted(drive["features"]) == sorted(SYMBOL_VARS)
        assert len(drive["features"]) == 17


def test_features_match_golden(dumped):
    _, dump = dumped
    golden = json.loads(GOLDEN.read_text())
    for name, want in golden.items():
        got = dump[name]
        assert list(got["features"]) == list(want["features"]), name
        np.testing.assert_allclose(
            list(got["features"].values()), list(want["features"].values()),
            rtol=RTOL, atol=0, equal_nan=True, err_msg=name,
        )
        np.testing.assert_allclose(got["r_peaks"], want["r_peaks"],
                                   rtol=RTOL, atol=0, err_msg=name)
