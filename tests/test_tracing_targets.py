"""Every function a traced benchmark run wraps by name exists in
``matvines``, so a rename fails here before it breaks a traced run."""

import importlib
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def resolves(module, attr):
    obj = importlib.import_module(f"matvines.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_traced_target_resolves():
    assert len(tracing.TARGETS) >= 23
    missing = [f"{module}.{attr}" for _, module, attr in tracing.TARGETS
               if not resolves(module, attr)]
    assert missing == []
