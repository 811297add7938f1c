"""The benchmark tracer hooks swdisp functions by name; a rename must fail
here rather than only as an absent hook in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _expected_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.EXPECTED


@pytest.mark.parametrize("name", _expected_hooks())
def test_tracer_hook_resolves_to_public_swdisp_callable(name):
    module_name, *owner, attr = name.split(".")
    module = importlib.import_module(f"swdisp.{module_name}")
    assert not attr.startswith("_")
    if owner:
        (cls_name,) = owner
        raw = vars(getattr(module, cls_name)).get(attr)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert inspect.isfunction(raw), name
    else:
        fn = vars(module).get(attr)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name
