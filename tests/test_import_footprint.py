"""drivedml never loads scipy.

``signals`` designs, applies and analyses its filters with numpy alone,
so importing the package, fitting a model and every command, a
four-channel ``extract`` included, leave no scipy module in
``sys.modules``. Each check runs in a fresh interpreter, because this
test process may already have imported scipy through another test.
"""

import os
import subprocess
import sys
from pathlib import Path

import drivedml

SRC = Path(drivedml.__file__).resolve().parent.parent

ESTIMATE = """
import importlib, pkgutil, sys
import drivedml
from drivedml import cli
from drivedml.boosting import GbmParams
from drivedml.dml import ModelSpec, fit_dml
from drivedml.simulate import PlmScenario, gen_plm_dataset

for info in pkgutil.iter_modules(drivedml.__path__):
    importlib.import_module("drivedml." + info.name)
table, _ = gen_plm_dataset(PlmScenario(n=200, seed=3))
params = GbmParams(n_estimators=5, max_depth=2, min_leaf=10)
spec = ModelSpec(name="plm", features=("x1",), outcomes=("outcome",),
                 treatments=("treatment",), confounders=("w1",), k_folds=2, seed=4,
                 outcome_params=params, treatment_params=params)
print(len(fit_dml(table, spec).ates))
out = sys.argv[1]
codes = [cli.main(argv) for argv in (
    ["simulate", "--scenario", "study", "--participants", "6", "--out-dir", out],
    ["run", "--data", out + "/study.csv", "--preset", "c", "--out-dir", out + "/run"],
    ["report", "--manifest", out + "/run/manifest.json", "--tables", "--out-dir", out + "/t"],
    ["simulate", "--scenario", "signals", "--duration", "40", "--out-dir", out],
    ["extract", "--ecg", out + "/ecg.csv", "--eda", out + "/eda.csv", "--resp", out + "/resp.csv",
     "--gaze", out + "/gaze.csv", "--out", out + "/features.json"],
)]
print(codes)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

FILTER = """
import sys
import numpy as np
from drivedml.signals import TimeSeries, design_butterworth, filtfilt, hrv_freq_domain

t = np.arange(6000) / 100.0
x = TimeSeries(np.sin(2 * np.pi * 0.5 * t) + np.sin(2 * np.pi * 20.0 * t), 100.0)
y = filtfilt(design_butterworth("lowpass", 4, 5.0, 100.0), x).samples
print(float(np.abs(y - np.sin(2 * np.pi * 0.5 * t))[500:-500].max()))
peaks = np.cumsum(0.9 + 0.05 * np.sin(2 * np.pi * 0.1 * np.arange(80)))
print(hrv_freq_domain(peaks).lf > 0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _run(code: str, *args) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_estimation_never_loads_scipy(tmp_path):
    lines = _run(ESTIMATE, tmp_path)
    # the commands print their own lines between the first and the last two
    assert lines[0] == "1"
    assert lines[-2:] == ["[0, 0, 0, 0, 0]", "[]"]


def test_filters_load_no_scipy():
    residual, has_lf, loaded = _run(FILTER)
    assert float(residual) < 0.01
    assert has_lf == "True"
    assert loaded == "[]"
