"""Command line front end: simulate, run, summarize, fit-gk.

``simulate`` writes binary files only: a reference table as
``table_seed<s>.npz`` (``ReferenceTable.to_npz``: the arrays, the seed,
the model fingerprint, the retries and the theta names), or for the
state-space model ``observations_seed<s>.npz`` with one exact float array
per day (``day_1``, ...) beside ``truth_seed<s>.json``.

Exit codes: 0 on success, 2 for validation problems (bad config, bad
arguments, unreadable inputs), 3 for numerical failures (zero ABC
weights, non-finite states, quantile fits that do not converge).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from lfgibbs.abc import simulate_reference_table
from lfgibbs.experiments import (ExperimentConfig, _hier_spec, _mixture_spec,
                                 _statespace_setup, run_experiment,
                                 summarize_directory)
from lfgibbs.gk import estimate_gk
from lfgibbs.models.hierarchical import hierarchical_model
from lfgibbs.models.mixture import mixture_model


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = int(args.seed)
    if config.model == "statespace":
        calendar, observations, truth = _statespace_setup(config, seed)
        path = out / f"observations_seed{seed}.npz"
        np.savez_compressed(path, **{f"day_{t}": day for t, day
                                     in enumerate(observations, start=1)})
        meta = {"seed": seed, "n_days": calendar.n_days,
                "summer_step": truth["summer_step"],
                "theta_path": truth["theta_path"].tolist()}
        (out / f"truth_seed{seed}.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n")
        print(path)
        return 0
    if config.model == "hierarchical":
        model = hierarchical_model(_hier_spec(config))
    else:
        model = mixture_model(_mixture_spec(config))
    table = simulate_reference_table(model, config.n_table, seed=seed)
    path = out / f"table_seed{seed}.npz"
    table.to_npz(path)
    print(path)
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.load(args.config)
    if args.seed is not None:
        config.seeds = [int(args.seed)]
    bundle = run_experiment(config, out_dir=args.out, workers=args.workers)
    print(Path(bundle.out_dir) / "summary.json")
    if bundle.failures:
        print(f"{len(bundle.failures)} of "
              f"{len(bundle.rows) + len(bundle.failures)} cells failed",
              file=sys.stderr)
    return 0


def _cmd_summarize(args) -> int:
    summarize_directory(args.out)
    print(Path(args.out) / "summary.json")
    return 0


def _cmd_fit_gk(args) -> int:
    raw = Path(args.data).read_text()
    values = [float(tok) for tok in raw.replace(",", " ").split()]
    params = estimate_gk(np.asarray(values, dtype=float))
    payload = {"A": params.A, "B": params.B, "g": params.g, "k": params.k,
               "c": params.c}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfgibbs",
        description="Likelihood-free Gibbs experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="write a reference table or synthetic dataset")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    run = sub.add_parser("run", help="run the full experiment grid")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None,
                     help="replace the config's seed list with this one seed")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_run)

    summ = sub.add_parser("summarize",
                          help="rebuild summary.json from a results directory")
    summ.add_argument("--out", required=True)
    summ.set_defaults(func=_cmd_summarize)

    fit = sub.add_parser("fit-gk",
                         help="fit quantile-function parameters to a sample")
    fit.add_argument("data", help="text file of numbers")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=_cmd_fit_gk)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
