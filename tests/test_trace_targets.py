"""Every function the benchmark's per-layer trace wraps must exist, and
the state-space sweep must call its traced steps as often as the
benchmark's count check expects.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry at the module or
class attribute the engines look it up through.  Renaming or inlining one
of them would silently drop a layer from the trace, so it fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lfgibbs.statespace import conditionals, sampler, training
from lfgibbs.statespace.system import DlmSpec, SeasonCalendar

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


def test_state_space_sweep_calls_each_traced_step_once_per_day(monkeypatch):
    # the benchmark gates its per-sweep counts on these calls: one
    # localization over the whole training table, one kernel weighting
    # and one predictor and state draw per day
    calls = {}

    def spy(owner, name, rows=None):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.setdefault(name, []).append(None if rows is None else rows(args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    spy(training, "scaled_distance", rows=lambda args: np.shape(args[0])[0])
    spy(training, "knn_bandwidth")
    spy(training, "kernel_weight")
    spy(sampler, "sample_lambda_conditional")
    spy(conditionals.SweepOperator, "draw_state")

    n_days, n_pairs = 4, 60
    rng = np.random.default_rng(8)
    summaries = np.array([1.0, np.log(0.25), 0.2, np.log(0.62)]) \
        + 0.05 * rng.normal(size=(n_days, 4))
    sampler.run_state_space_gibbs(
        DlmSpec(), SeasonCalendar(n_days=n_days, summer_start=2, summer_end=3),
        sampler.TrainingConfig(n_pairs=n_pairs, m_neighbours=30), sampler.ChainConfig(1),
        rng, summaries=summaries, n_obs=np.array([200, 300, 250, 400]))
    assert calls["scaled_distance"] == [n_pairs] * n_days
    for name in ("knn_bandwidth", "kernel_weight", "sample_lambda_conditional",
                 "draw_state"):
        assert len(calls[name]) == n_days, name
