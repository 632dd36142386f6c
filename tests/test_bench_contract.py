"""The traced benchmark run wraps package functions by name; they must exist."""

import importlib.util
from pathlib import Path

import pytest

import cellseed.cli  # noqa: F401  (imports every layer module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, *_ in tracing.SPANS]
)
def test_span_target_exists(owner, attr):
    assert callable(getattr(tracing._resolve(owner), attr, None)), f"{owner}.{attr}"
