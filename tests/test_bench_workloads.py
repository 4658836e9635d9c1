"""Each benchmark workload runs on this checkout and passes the
benchmark's own correctness check.

``perfbench/workloads.py`` builds its workloads from the engines' public
entry points, and its ``check`` compares a chain with the one recorded in
``perfbench/reference.json``: the same digest, or else within the stated
Monte Carlo tolerance.  A change that removes a name the benchmark
imports, or that moves a chain past that tolerance, fails here.  The
benchmark's files are loaded by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its annotations through its module's entry here
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
run = _load("run")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_benchmark_check(name, tmp_path, monkeypatch):
    # run.load_reference imports the workloads under the benchmark's own name
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    reference = run.load_reference(name, 0)
    assert reference is not None
    workload = workloads.WORKLOADS[name]
    inputs = dict(workload.make_inputs(0), seed=0)
    rep = workload.run(inputs, tmp_path)
    result = workloads.check(workload, inputs, workload.oracle(inputs), reference,
                             rep.output, None)
    assert result["ok"], result


def test_statespace_bench_chain_pinned(tmp_path):
    # the bench-size state-space chain (14 days, 300 pairs, 300 sweeps)
    # at seed 0, bit for bit: the same digest with one BLAS thread and
    # with the default count
    inputs = dict(workloads.statespace_inputs(0), seed=0)
    rep = workloads.statespace_run(inputs, tmp_path)
    assert workloads.digest(rep.output.states) == "594f78b0c3dd66ab"
