"""Every function the benchmark's per-layer trace wraps must exist.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry at the module or
class attribute the engines look it up through.  Renaming or inlining one
of them would silently drop a layer from the trace, so it fails here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for _, m, a, _ in tracing.TARGETS])
def test_target_resolves(module, attr):
    owner, name = tracing._owner(module, attr)
    assert callable(vars(owner)[name])
