"""Checks of the benchmark itself (about two minutes on two cores).

    python3 -m pytest perfbench -q

Each workload runs traced under two seeds.  The counts the configuration
fixes must come out identical under both seeds and equal to the sweep
arithmetic, as ``experiments.timing_table`` requires of the engine's own
counts; seed-dependent counts (``summarize.redraw_frac``,
``localize.kept_frac``) are reported by the benchmark and not gated here.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = (3, 4)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _expected_counts(name: str) -> dict:
    """Counts that follow from the configuration alone."""
    if name == "statespace-gk":
        sweeps = wl.SS_CHAIN.n_iterations
        return {"fit.calls": 0, "localize.calls": sweeps * wl.SS_DAYS,
                "localize.rows_scanned": sweeps * wl.SS_DAYS * wl.SS_TRAINING.n_pairs,
                # initial state, then predictor and state per day, then terminal state
                "draw.calls": sweeps * (2 * wl.SS_DAYS + 2),
                "summarize.obs_fits": wl.SS_DAYS}
    estimated = [s for s in wl.hier.hierarchical_engine_specs(wl.HIER_SPEC, "linear")
                 if not s.is_exact]
    members = sum(len(s.members) for s in estimated)
    sweeps = wl.LOCAL["n_iterations"]
    return {"fit.calls": sweeps * len(estimated), "localize.calls": sweeps * members,
            "localize.rows_scanned": sweeps * members * wl.N_TABLE,
            "draw.calls": sweeps * members, "summarize.obs_fits": 0}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One traced repetition per workload and seed: (inputs, chain, metrics)."""
    out = {}
    for name, workload in wl.WORKLOADS.items():
        for seed in SEEDS:
            inputs = workload.make_inputs(seed)
            tracer = tracing.Tracer()
            with tracer.installed():
                rep = workload.run(inputs, tmp_path_factory.mktemp(name))
            out[name, seed] = inputs, rep.output, tracer.metrics(rep)
    return out


@pytest.fixture(scope="module")
def traced(runs):
    return {key: metrics for key, (_, _, metrics) in runs.items()}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_fixed_counts_match_config_under_two_seeds(traced, name):
    expected = _expected_counts(name)
    assert set(expected) == set(tracing.GATED_COUNTS)
    for seed in SEEDS:
        got = {k: traced[name, seed][k] for k in tracing.GATED_COUNTS}
        assert got == expected, seed


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_self_times_add_up_to_total(traced, name):
    for seed in SEEDS:
        m = traced[name, seed]
        covered = sum(m[f"{layer}.s"] for layer in tracing.LAYERS) + m["engine.self_s"]
        assert covered == pytest.approx(m["trace.total_s"], rel=0.05)


@pytest.mark.parametrize("name,layer,phase,share", [
    ("statespace-gk", "summarize", "setup", 0.8),
    ("hier-local", "localize", "sample", 0.6),
])
def test_each_workload_stresses_its_layer(traced, name, layer, phase, share):
    for seed in SEEDS:
        m = traced[name, seed]
        assert m[f"{layer}.s"] >= share * m[f"trace.{phase}_s"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reference_gate_passes_the_chain_and_refuses_a_shifted_one(runs, name):
    workload, seed = wl.WORKLOADS[name], SEEDS[0]
    inputs, out, _ = runs[name, seed]
    oracle = workload.oracle(inputs)
    reference = run.load_reference(name, seed)
    assert wl.check(workload, inputs, oracle, reference, out, None)["ok"]

    # move every tracked mean by one chain sd, as a broken engine would
    idx = [out.names.index(c) for c in workload.tracked]
    states = out.states.copy()
    states[:, idx] += states[:, idx].std(axis=0)
    diagnostics = dict(out.diagnostics)
    if "predictor_means" in diagnostics:
        diagnostics["predictor_means"] = diagnostics["predictor_means"] + 1.0
    shifted = dataclasses.replace(out, states=states, diagnostics=diagnostics)
    result = wl.check(workload, inputs, oracle, reference, shifted, None)
    assert not result["ok"]
    assert not result["reference"]["digest_match"] and result["reference"]["moved"]


def test_every_reference_seed_is_recorded():
    table = json.loads(wl.REFERENCE_PATH.read_text())
    assert set(table) == set(wl.WORKLOADS)
    for records in table.values():
        assert set(records) == {str(seed) for seed in wl.REFERENCE_SEEDS}


def test_wrappers_are_removed_after_the_traced_block():
    before = [vars(tracing._owner(module, attr)[0])[attr.split(".")[-1]]
              for _, module, attr, _ in tracing.TARGETS]
    with tracing.Tracer().installed():
        pass
    after = [vars(tracing._owner(module, attr)[0])[attr.split(".")[-1]]
             for _, module, attr, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_phase_at_reference_speed_drops_probe_time_and_scales_by_mean_speed():
    ref = hostspeed.PROBE_REF_S
    samples = hostspeed.SpeedSamples()
    samples.probes = [(0.0, ref), (0.5, 2 * ref), (1.5, ref)]
    phase = samples.normalized(0.0, 1.0, fallback=1.0)
    assert phase["probes"] == 2 and phase["probe_s"] == pytest.approx(3 * ref)
    # speeds 1 and 1/2 average to 3/4
    assert phase["s"] == pytest.approx((1.0 - 3 * ref) * 0.75)
    assert samples.normalized(2.0, 3.0, fallback=0.5)["s"] == pytest.approx(0.5)


def test_sampling_takes_probes_then_stops_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    samples = hostspeed.SpeedSamples()
    with samples.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    assert len(samples.probes) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hier-local",
                           "--seed", "1", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_declared_metric(trace, section):
    proc = _bench(HERE.parent, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
