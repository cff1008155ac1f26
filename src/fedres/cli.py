"""Command-line experiment runner.

Subcommands: run, sweep-clients, sweep-delay, appendixc, bandit,
partition. Outputs a CSV with the fixed header; relative output paths
resolve under $FEDRES_OUTPUT_DIR (default: current directory). Exit codes:
0 success, 1 configuration error, 2 IO error, 3 invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .datagen import load_libsvm, partition_federated, write_partition_manifest
from .errors import ConfigError, InvariantError
from .harness import (
    ALGOS,
    CSV_HEADER,
    ExperimentConfig,
    appendixc_rows,
    bandit_rows,
    default_output_dir,
    run_experiment,
    sweep,
    write_csv,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    """The ExperimentConfig options, each defaulting to the dataclass's value."""
    p.set_defaults(**asdict(ExperimentConfig()))
    p.add_argument("--rounds", type=int)
    p.add_argument("--clients", type=int)
    p.add_argument("--alpha", type=int, help="uplink delay (rounds)")
    p.add_argument("--beta", type=int, help="downlink delay (rounds)")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--eta-global", type=float)
    p.add_argument("--eta-local", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--rollouts", type=int)
    p.add_argument("--base-seed", type=int)
    p.add_argument("--data", help="example2 | appendixc | libsvm:<path>")
    p.add_argument("--dim", type=int)
    p.add_argument("--v-norm", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--n0", type=int)
    p.add_argument("--holdout", type=float)
    p.add_argument("--test-rounds", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--output", default=None, help="CSV path; '-' for stdout")


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})


def _output_path(output: str | None, default_name: str) -> Path:
    """Relative paths, the default name included, resolve under default_output_dir()."""
    return default_output_dir() / (output or default_name)


def _emit(rows: list[str], output: str | None, default_name: str) -> None:
    if output == "-":
        sys.stdout.write(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        return
    path = _output_path(output, default_name)
    write_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit code 1, not 2)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="one config, all rollouts")
    p_run.add_argument("--algo", choices=ALGOS)
    _add_common(p_run)

    p_sc = sub.add_parser("sweep-clients", help="sweep the number of clients")
    p_sc.add_argument("--algo", choices=ALGOS)
    p_sc.add_argument("--values", type=int, nargs="+", required=True)
    _add_common(p_sc)

    p_sd = sub.add_parser("sweep-delay", help="sweep the round-trip delay")
    p_sd.add_argument("--algo", choices=ALGOS)
    p_sd.add_argument("--values", type=int, nargs="+", required=True)
    _add_common(p_sd)

    p_ac = sub.add_parser("appendixc", help="three-way comparison on the complementary-views stream")
    p_ac.add_argument("--rounds", type=int, default=20000)
    p_ac.add_argument("--rollouts", type=int, default=50)
    p_ac.add_argument("--eta", type=float, default=1.0,
                      help="gradient-learner step; steps above ~0.1 diverge on this stream")
    p_ac.add_argument("--base-seed", type=int, default=0)
    p_ac.add_argument("--jobs", type=int, default=1)
    p_ac.add_argument("--output", default=None)

    p_b = sub.add_parser("bandit", help="periodic-exploration bandit vs uniform baseline")
    p_b.add_argument("--period", dest="exploration_period", type=int, metavar="B",
                     help="explore every B rounds")
    p_b.add_argument("--actions", dest="k_actions", type=int, metavar="K")
    _add_common(p_b)

    p_p = sub.add_parser("partition", help="partition a LIBSVM corpus and write the manifest")
    p_p.add_argument("corpus", help="path to a LIBSVM text file (.gz allowed)")
    p_p.add_argument("--clients", type=int, default=10)
    p_p.add_argument("--n0", type=int, default=30)
    p_p.add_argument("--holdout", type=float, default=0.25)
    p_p.add_argument("--seed", type=int, default=0)
    p_p.add_argument("--output", default=None, help="manifest path")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            cfg = _config(args)
            _emit(run_experiment(cfg), args.output, "run.csv")
        elif args.command in ("sweep-clients", "sweep-delay"):
            cfg = _config(args)
            axis = "clients" if args.command == "sweep-clients" else "delay"
            _emit(sweep(cfg, axis, args.values), args.output, f"sweep_{axis}.csv")
        elif args.command == "appendixc":
            rows = appendixc_rows(
                rounds=args.rounds,
                rollouts=args.rollouts,
                eta=args.eta,
                base_seed=args.base_seed,
                jobs=args.jobs,
            )
            _emit(rows, args.output, "appendixc.csv")
        elif args.command == "bandit":
            cfg = _config(args)
            _emit(bandit_rows(cfg), args.output, "bandit.csv")
        elif args.command == "partition":
            corpus = load_libsvm(args.corpus)
            dataset = partition_federated(corpus, args.clients, args.n0, args.seed, args.holdout)
            out = _output_path(args.output, "partition.txt")
            out.parent.mkdir(parents=True, exist_ok=True)
            write_partition_manifest(dataset, out)
            print(f"wrote manifest for {dataset.n_clients} clients to {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
