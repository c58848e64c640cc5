"""drivedml never loads scipy, and its raw-signal path no estimator.

``signals`` designs, applies and analyses its filters with numpy alone,
so importing the package, fitting a model and every command, a
four-channel ``extract`` included, leave no scipy module in
``sys.modules``. Reading a drive's recordings (``io``) and extracting
its features (``signals``) load no estimator module: not ``dml``,
``boosting``, ``study_data`` or ``rng``. ``cate_tree`` loads the CART
kernel in ``boosting`` but not ``dml``. Each check runs in a fresh
interpreter, because this test process has already imported the whole
package, and may have imported scipy, through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import drivedml
from drivedml.io import write_gaze_csv, write_timeseries_csv
from drivedml.simulate import GazeStep, SignalProfile, gen_synthetic_signals

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
print(hrv_freq_domain(peaks)["LF"] > 0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

RAW_PATH = """
import sys
from drivedml.io import read_gaze_csv, read_timeseries
from drivedml.signals import extract_drive_features

out = sys.argv[1]
ecg, eda, resp = (read_timeseries(f"{out}/{name}.csv") for name in ("ecg", "eda", "resp"))
gaze = read_gaze_csv(out + "/gaze.csv", px_per_deg=35.0)
features = extract_drive_features(ecg=ecg, eda=eda, resp=resp, gaze=gaze)
print(len(features))
print(" ".join(m for m in sys.modules if m.startswith("drivedml.")))
"""

ESTIMATOR_MODULES = {"drivedml.dml", "drivedml.boosting", "drivedml.study_data", "drivedml.rng"}


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


def test_raw_signal_path_loads_no_estimator(tmp_path):
    steps = (GazeStep("fixation", 0.4), GazeStep("saccade", 0.05, 8.0)) * 20
    drive = gen_synthetic_signals(
        SignalProfile(scr_events=((5.0, 0.3), (20.0, 0.5)), gaze_steps=steps), 40.0)
    for name in ("ecg", "eda", "resp"):
        write_timeseries_csv(getattr(drive, name), tmp_path / f"{name}.csv")
    write_gaze_csv(drive.gaze, tmp_path / "gaze.csv")
    n_features, loaded = _run(RAW_PATH, tmp_path)
    assert int(n_features) > 10
    assert ESTIMATOR_MODULES.isdisjoint(loaded.split()), loaded


def test_cate_tree_loads_no_dml():
    (loaded,) = _run("import sys, drivedml.cate_tree; print(' '.join(sys.modules))")
    assert "drivedml.boosting" in loaded.split()
    assert "drivedml.dml" not in loaded.split(), loaded
