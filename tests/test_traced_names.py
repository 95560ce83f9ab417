"""Every function the benchmark's tracer wraps must exist in the package.

perfbench/spans.py replaces each (module, attribute) of its TRACED table by a
timing wrapper; a name that no longer resolves makes every traced benchmark
command fail.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_spans().TRACED
    assert traced
    missing = []
    for _, module_name, attr, _ in traced:
        target = importlib.import_module("primetop." + module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"primetop.{module_name}.{attr}")
    assert not missing, missing
