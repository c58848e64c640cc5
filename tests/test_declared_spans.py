"""Every traced function that BENCHMARK.json declares a metric of still exists.

The benchmark's tracer wraps each public function that a drivedml module
defines (and ``GbmModel.predict``) and reports ``<module>.<name>.calls``
and ``.self_s``; a traced run fails when a declared metric is missing.
So removing or renaming such a function breaks the benchmark. This test
reads the declared list, without changing it, and says so at once.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPAN_SUFFIXES = ("calls", "self_s")


def _declared_spans() -> list[str]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({n.rsplit(".", 1)[0] for n in names if n.rsplit(".", 1)[1] in SPAN_SUFFIXES})


def test_benchmark_declares_spans():
    assert "signals.extract_drive_features" in _declared_spans()
    assert "boosting.GbmModel.predict" in _declared_spans()


def test_declared_spans_name_public_functions():
    missing = []
    for span in _declared_spans():
        module_name, _, attr = span.partition(".")
        module = importlib.import_module(f"drivedml.{module_name}")
        if attr == "GbmModel.predict":
            ok = inspect.isfunction(getattr(getattr(module, "GbmModel", None), "predict", None))
        else:
            fn = getattr(module, attr, None)
            ok = (not attr.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == module.__name__)
        if not ok:
            missing.append(span)
    assert missing == []
