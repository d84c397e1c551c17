"""Command-line entry points: run / compare / validate-schedule."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import experiment, growth
from .errors import FedgrowError, ScheduleError


def _cmd_run(args) -> int:
    config = experiment.ExperimentConfig.load(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
        if config.partition is not None:
            config.partition = dataclasses.replace(config.partition, seed=args.seed)
    if args.rounds is not None:
        config.rounds = args.rounds
    if args.output is not None:
        config.output_dir = args.output
    out = experiment.run(config)
    manifest = json.loads((out / "manifest.json").read_text())
    acc = manifest.get("final_accuracy")
    print(f"run complete: {out}")
    print(f"  method={config.method} rounds={manifest.get('rounds_completed')} "
          f"final_model={manifest.get('final_model_index')} "
          f"final_accuracy={acc if acc is not None else 'n/a'} "
          f"total_bytes={manifest.get('total_bytes')}")
    for ev in manifest.get("switch_events", []):
        print(f"  switch at round {ev['round']}: model {ev['from_model'] + 1} -> "
              f"{ev['to_model'] + 1} (signal {ev['signal']:.6g})")
    return 0


def _cmd_compare(args) -> int:
    rows = experiment.compare(args.run_dirs, args.output)
    print(f"wrote {len(rows)} reduction rows to {args.output}")
    return 0


def _cmd_validate_schedule(args) -> int:
    try:
        schedule = growth.load_schedule(args.schedule)
    except ScheduleError as e:
        print("schedule is invalid:")
        for v in e.violations:
            print(f"  - {v}")
        return 1
    print(f"schedule ok: {schedule.num_models} models, "
          f"thresholds {list(schedule.thresholds)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedgrow",
        description="Federated training simulator with staged model growing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("--config", required=True, help="path to a config JSON")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--rounds", type=int, default=None, help="round count override")
    p_run.add_argument("--output", default=None, help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="byte reductions of the first run over the others")
    p_cmp.add_argument("run_dirs", nargs="+", help="completed run directories")
    p_cmp.add_argument("--output", default="reductions.csv",
                       help="where to write the reduction table")
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validate-schedule", help="check a schedule JSON file")
    p_val.add_argument("schedule", help="path to a schedule JSON")
    p_val.set_defaults(func=_cmd_validate_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FedgrowError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # before or after a run's rounds
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
