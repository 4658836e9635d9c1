"""Fixed-seed benchmark of the lfgibbs engines.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hier-local --seed 1 --seconds 55 --trace 0

The run repeats the workload until ``--seconds`` would be exceeded (a
warm-up repetition and at least three more) and prints a report, then, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
medians over the repetitions after the warm-up, each timed at reference
host speed (hostspeed.py); with ``--trace 1`` untraced and traced
repetitions alternate and the metrics are the per-layer figures of the
traced ones, in wall time.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the first repetition warms caches and lazy imports and is not timed
MIN_REPS = 4
# one BLAS thread keeps the second core out of the timings
BLAS_THREADS = 1


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas() -> int:
    """Pin BLAS to BLAS_THREADS (at most nproc); call before numpy is first imported."""
    threads = min(BLAS_THREADS, _nproc())
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def blas_threads_in_use():
    """The thread count numpy's bundled OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        # numpy 2 wheels, then numpy 1 wheels
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(blas_threads: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lfgibbs").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": _nproc(),
            "blas_threads_requested": blas_threads, "blas_threads": blas_threads_in_use()}


def load_reference(workload: str, seed: int):
    """The recorded reference of a seed in REFERENCE_SEEDS; None for other seeds."""
    from workloads import REFERENCE_PATH, REFERENCE_SEEDS

    if seed not in REFERENCE_SEEDS:
        return None
    return json.loads(REFERENCE_PATH.read_text())[workload][str(seed)]


def at_reference_speed(rep, samples) -> dict:
    """The repetition's set-up, sweeps and total at reference host speed."""
    start, loop, returned, end = rep.marks
    speed = samples.speed()
    phases = {"setup": samples.normalized(start, loop, speed),
              "sample": samples.normalized(loop, returned, speed),
              "save": samples.normalized(returned, end, speed)}
    return {"total_s": sum(p["s"] for p in phases.values()),
            "setup_s": phases["setup"]["s"], "sample_s": phases["sample"]["s"],
            "host": phases}


def measure(workload, inputs, seconds: float, traced: bool, out_dir: Path) -> dict:
    """Repeat the workload; in traced mode alternate untraced and traced reps.

    Untraced mode samples host speed during every repetition; traced mode
    does not, so that no probe falls inside a layer's span.  Only each
    repetition's figures are kept, not its chain, so peak memory does not
    grow with the number of repetitions.
    """
    from hostspeed import SpeedSamples
    from tracing import Tracer
    from workloads import check

    oracle = workload.oracle(inputs)
    reference = load_reference(workload.name, inputs["seed"])
    reps, checks, errors, last_tracer = [], [], [], None
    start = time.perf_counter()
    attempted = failed = 0
    while True:
        tracer = Tracer() if traced and attempted % 2 == 1 else None
        samples = None if traced else SpeedSamples()
        context = (tracer.installed() if tracer else
                   samples.sampling() if samples else nullcontext())
        attempted += 1
        t0 = time.perf_counter()
        try:
            with context:
                rep = workload.run(inputs, out_dir)
            result = check(workload, inputs, oracle, reference, rep.output,
                           checks[0]["digest"] if checks else None)
        except Exception:  # a failed repetition is counted and the run goes on
            failed += 1
            errors.append(traceback.format_exc())
        else:
            checks.append(result)
            failed += not result["ok"]
            wall = {"total_s": rep.total_s, "setup_s": rep.setup_s, "sample_s": rep.sample_s}
            reps.append({"warmup": attempted == 1, "traced": tracer is not None,
                         **(at_reference_speed(rep, samples) if samples else wall),
                         "wall": wall, "engine_timings": rep.output.timings.as_dict(),
                         "layers": None if tracer is None else tracer.metrics(rep)})
            last_tracer = tracer or last_tracer
        rep = None
        last = time.perf_counter() - t0
        if attempted >= MIN_REPS and time.perf_counter() - start + last > seconds:
            break
    return {"attempted": attempted, "failed": failed, "reps": reps, "checks": checks,
            "errors": errors, "tracer": last_tracer, "oracle": oracle,
            "has_reference": reference is not None}


def _median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lfgibbs" / "__init__.py").is_file():
        print(f"no lfgibbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = pin_blas()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    inputs = dict(workload.make_inputs(args.seed), seed=args.seed)

    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        res = measure(workload, inputs, args.seconds, bool(args.trace), Path(tmp))

    plain = [r for r in res["reps"] if not r["traced"] and not r["warmup"]]
    per_rep = [r["layers"] for r in res["reps"] if r["traced"]]
    if args.trace:
        from tracing import GATED_COUNTS

        untraced_total = _median([r["total_s"] for r in plain])
        for m in per_rep:
            m["trace.overhead_frac"] = m["trace.total_s"] / untraced_total - 1.0
        values = {name: _median([m[name] for m in per_rep]) for name in per_rep[0]
                  } if per_rep else {}
        res["errors"] += [f"count {name} differs between traced repetitions"
                          for name in GATED_COUNTS if len({m[name] for m in per_rep}) > 1]
        if res["tracer"] is not None:
            res["tracer"].write(work_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {"total_s": _median([r["total_s"] for r in plain]),
                  "setup_s": _median([r["setup_s"] for r in plain]),
                  "sample_s": _median([r["sample_s"] for r in plain]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(blas_threads),
              "reps": [{k: v for k, v in r.items() if k != "layers"} for r in res["reps"]],
              "has_reference": res["has_reference"], "exact_moments": res["oracle"],
              "checks": res["checks"], "errors": res["errors"]}
    print(json.dumps(report, indent=1))
    correct = res["failed"] == 0 and not res["errors"] and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
