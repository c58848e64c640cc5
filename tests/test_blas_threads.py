"""Estimates that do not depend on the BLAS thread count.

``dml.fit_final_stage`` and ``signals.filtfilt`` run their matrix
products on one BLAS thread (``_blas._one_blas_thread``) when numpy's
OpenBLAS exports ``openblas_set_num_threads_local`` (OpenBLAS 0.3.27
and later). The final stage's Gram has the same bits on one thread as
on several, and its HC0 meat sums in one fixed order, so
``scripts/preset_digest.py --seed 7 --trees 5`` gives estimates
``f56eedfe...`` (CATE trees ``ccc85647...``) both with OpenBLAS's
default thread count and with ``OPENBLAS_NUM_THREADS=1``. Without that
call the final stage keeps OpenBLAS's count, and on a host with two or
more CPUs the standard errors of presets b and d move in their last bits
(``e74e7242...`` with two threads).

The golden tests also rerun with one OpenBLAS thread: a change whose
golden match holds only under one thread count's rounding, such as a
reordered Gram sum that flips a CATE split, fails here even when the
suite's own run passes.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from drivedml import _blas, dml, signals
from drivedml.boosting import GbmParams
from drivedml.errors import EstimationError
from drivedml.report import run_presets
from drivedml.simulate import gen_study_dataset, write_study_csv

ROOT = Path(__file__).resolve().parents[1]

needs_thread_setter = pytest.mark.skipif(
    _blas._SET_BLAS_THREADS is None,
    reason="numpy's BLAS exports no openblas_set_num_threads_local",
)


def _one_thread_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
                OPENBLAS_NUM_THREADS="1")


def estimates_digest() -> str:
    """sha256 of the manifest estimates of presets b and d, seed 7, 5 trees:
    the two presets whose final-stage products OpenBLAS would thread."""
    params = GbmParams(n_estimators=5)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "study.csv"
        write_study_csv(gen_study_dataset(seed=7, missing_rows=62), data)
        run_presets(data, ["b", "d"], Path(tmp) / "run", seed=7,
                    outcome_params=params, treatment_params=params)
        models = json.loads((Path(tmp) / "run" / "manifest.json").read_text())["models"]
    payload = json.dumps([m["estimates"] for m in models], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_golden_tests_pass_with_one_blas_thread():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_preset_golden.py", "tests/test_plm_golden.py"],
        cwd=ROOT, capture_output=True, text=True, env=_one_thread_env(), timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@needs_thread_setter
def test_estimates_match_with_one_blas_thread():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from test_blas_threads import estimates_digest; print(estimates_digest())"],
        cwd=ROOT, capture_output=True, text=True, env=_one_thread_env(), timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert estimates_digest() == proc.stdout.strip()


def _record_setter_calls(monkeypatch) -> list:
    """The counts passed to the BLAS thread setter from now on."""
    setter = _blas._SET_BLAS_THREADS
    calls = []

    def recording_setter(count):
        calls.append(count)
        return setter(count)

    monkeypatch.setattr(_blas, "_SET_BLAS_THREADS", recording_setter)
    return calls


@needs_thread_setter
def test_final_stage_restores_the_callers_thread_count(monkeypatch):
    setter = _blas._SET_BLAS_THREADS
    calls = _record_setter_calls(monkeypatch)
    rng = np.random.default_rng(5)
    t = rng.normal(size=(50, 1))
    fit = dml.NuisanceFit(
        fold_assignment=np.zeros(50, dtype=np.int64), outcome_predictions=np.zeros((50, 1)),
        treatment_predictions=np.zeros((50, 1)), outcome_residuals=t.copy(),
        treatment_residuals=t,
    )
    spec = dml.ModelSpec(name="m", features=("x1", "x2"), outcomes=("y",), treatments=("t",))
    original = setter(2)
    try:
        dml.fit_final_stage(fit, rng.normal(size=(50, 2)), spec)
        assert calls == [1, 2]
        assert setter(2) == 2
        calls.clear()
        duplicated = np.repeat(rng.normal(size=(50, 1)), 2, axis=1)
        with pytest.raises(EstimationError, match="collinear"):
            dml.fit_final_stage(fit, duplicated, spec)
        assert calls == [1, 2]
        assert setter(2) == 2
    finally:
        setter(original)


@needs_thread_setter
def test_filtfilt_restores_the_callers_thread_count(monkeypatch):
    setter = _blas._SET_BLAS_THREADS
    calls = _record_setter_calls(monkeypatch)
    filt = signals.design_butterworth("lowpass", 4, 5.0, 100.0)
    x = signals.TimeSeries(np.random.default_rng(6).normal(size=2000), 100.0)
    original = setter(2)
    try:
        signals.filtfilt(filt, x)
        assert calls == [1, 2]
        assert setter(2) == 2
    finally:
        setter(original)
