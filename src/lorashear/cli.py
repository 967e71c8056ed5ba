"""Command-line pipeline driver.

One subcommand per pipeline stage plus ``run-all`` chaining them, and
``graph dump`` / ``groups dump`` for inspecting the dependency analysis of a
checkpoint. Exit codes: 0 success, 2 configuration error, 3 stage
precondition error, 4 numeric failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .config import load_config
from .errors import ConfigError, LoraShearError, NumericError, StageError


def _shared_options(suppress: bool) -> argparse.ArgumentParser:
    """--config, --seed and --out, accepted before and after a stage subcommand.

    The copies after the subcommand default to SUPPRESS, so that one left out
    there does not overwrite a value given before the subcommand.
    """
    shared = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS if suppress else None
    )
    shared.add_argument("--config", type=Path, help="pipeline config JSON")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument(
        "--out",
        type=Path,
        default=argparse.SUPPRESS if suppress else Path("runs/default"),
        help="output directory",
    )
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorashear",
        description="Structured pruning pipeline for a LoRA-augmented toy transformer.",
        parents=[_shared_options(suppress=False)],
    )
    parser.add_argument(
        "--stage", default=None, help="run a single stage by name (alternative to a subcommand)"
    )
    shared = _shared_options(suppress=True)
    sub = parser.add_subparsers(dest="command")
    for stage in pipeline.STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage", parents=[shared])
        if stage == "eval":
            p.add_argument(
                "--model", action="append", default=None, help="checkpoint to evaluate (repeatable)"
            )
    sub.add_parser("run-all", help="run every stage in order", parents=[shared])

    graph_p = sub.add_parser("graph", help="trace graph tools")
    graph_sub = graph_p.add_subparsers(dest="graph_command", required=True)
    gd = graph_sub.add_parser("dump", help="dump the trace graph of a checkpoint as JSON")
    gd.add_argument("--checkpoint", type=Path, required=True)
    gd.add_argument("--output", type=Path, required=True)

    groups_p = sub.add_parser("groups", help="dependency group tools")
    groups_sub = groups_p.add_subparsers(dest="groups_command", required=True)
    gr = groups_sub.add_parser("dump", help="dump node groups and structure groups as JSON")
    gr.add_argument("--checkpoint", type=Path, required=True)
    gr.add_argument("--output", type=Path, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "graph":
            pipeline.dump_graph_artifact(args.checkpoint, args.output)
            return 0
        if args.command == "groups":
            pipeline.dump_groups_artifact(args.checkpoint, args.output)
            return 0

        cfg = load_config(args.config, seed=args.seed)
        stage = args.command or args.stage
        if stage is None:
            parser.print_help()
            return 2
        if stage == "run-all":
            pipeline.run_all(cfg, args.out)
        elif stage == "eval":
            models = getattr(args, "model", None)
            pipeline.eval_model_paths(models)  # a bad --model exits before --out is made
            args.out.mkdir(parents=True, exist_ok=True)
            pipeline.write_config(cfg, args.out / "config.json")
            pipeline.stage_eval(cfg, args.out, models=models)
        else:
            pipeline.run_stage(stage, cfg, args.out)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except StageError as e:
        print(f"stage error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except LoraShearError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
