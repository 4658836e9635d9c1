"""Record the reference chains that run.py compares each run against.

    python3 perfbench/make_reference.py --workload hier-local

Runs one repetition for every seed in ``workloads.REFERENCE_SEEDS``,
exactly as run.py does, and stores each chain's record (digest, accuracy
errors, mean, sd and ESS of the tracked columns and, for the state-space
model, the posterior-mean predictor path) in ``workloads.REFERENCE_PATH``
under the workload.  The records of the other workload are kept.
Re-record only for an engine change that is meant to change the chains,
and say so where that change is described.
"""

import argparse
import json
import tempfile
from pathlib import Path

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    run.pin_blas()
    from workloads import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, reference_record

    workload = WORKLOADS[args.workload]
    work_dir = run.ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    records = {}
    for seed in REFERENCE_SEEDS:
        inputs = workload.make_inputs(seed)
        oracle = workload.oracle(inputs)
        with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
            out = workload.run(inputs, Path(tmp)).output
        records[str(seed)] = _rounded(reference_record(workload, inputs, oracle, out))
        print(seed, json.dumps(records[str(seed)]["accuracy"]), flush=True)
    # read just before writing, so a recording of the other workload that
    # finished meanwhile is kept
    table = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    table[args.workload] = records
    write(REFERENCE_PATH, table)


def write(path: Path, table: dict) -> None:
    """One line per seed keeps the file small and its diffs readable."""
    path.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {{\n" + ",\n".join(
            f" {json.dumps(seed)}: {json.dumps(rec, sort_keys=True)}"
            for seed, rec in sorted(recs.items(), key=lambda kv: int(kv[0]))) + "\n}"
        for name, recs in sorted(table.items())) + "\n}\n")


def _rounded(value):
    """Floats to 10 significant digits, far below any tolerance applied."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


if __name__ == "__main__":
    main()
