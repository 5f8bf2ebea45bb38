"""The benchmark's per-layer metrics name functions that exist.

`BENCHMARK.json` lists per-layer metrics as `<layer>.<function>.<stat>`,
read off spans around the public functions of `treecount.<layer>`. A
refactor that renames, removes or privatizes such a function would make the
next traced benchmark run fail on a missing key; this test fails first.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_every_per_layer_metric_names_a_public_function():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    names = [m.rsplit(".", 1)[0] for m in metrics if not m.startswith("trace.")]
    assert names
    missing = []
    for name in names:
        layer, function = name.split(".")
        module = importlib.import_module(f"treecount.{layer}")
        obj = getattr(module, function, None)
        public = inspect.isfunction(obj) and obj.__module__ == module.__name__
        if function.startswith("_") or not public:
            missing.append(name)
    assert missing == []
