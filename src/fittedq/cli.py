"""Command-line surface.

Every subcommand reads a JSON config (``--config``); ``--out``, ``--seeds``
and ``--jobs`` override the corresponding config fields.  Exit codes:
0 success, 1 config validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import runner, serialize


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="path to a JSON config")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--seeds", type=str, default=None,
                        help="comma-separated seed list (overrides the config)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel seed workers")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fittedq",
        description="Batch and online fitted Q-iteration laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("solve-exact", *runner.RUN_COMMANDS, "sweep"):
        _add_common(sub.add_parser(name))
    matrix = sub.add_parser("solve-matrix")
    _add_common(matrix)
    matrix.add_argument("--payoff", type=Path, default=None,
                        help="JSON file holding the payoff matrix")
    diag = sub.add_parser("diagnose")
    diag.add_argument("diagnostic", choices=[
        command.removeprefix("diagnose-") for command in runner.DIAGNOSE_COMMANDS])
    _add_common(diag)
    return parser


def _load_config(args, command):
    if args.config is not None:
        if not args.config.is_file():
            raise runner.ConfigError([f"--config: file {args.config} does not exist"])
        base_dir = args.config.parent
        doc = runner.parse_document(args.config.read_bytes())
    elif command == "solve-matrix" and args.payoff is not None:
        doc = {"command": command, "payoff_path": str(args.payoff.name)}
        base_dir = args.payoff.parent
    else:
        raise runner.ConfigError(["--config is required"])
    doc.setdefault("command", command)
    if doc["command"] != command:
        raise runner.ConfigError(
            [f"command: config says {doc['command']!r} but the CLI invoked {command!r}"])
    if args.seeds is not None:
        try:
            doc["seeds"] = [int(s) for s in args.seeds.split(",") if s != ""]
        except ValueError:
            raise runner.ConfigError(
                [f"--seeds: {args.seeds!r} is not a comma-separated integer list"]) from None
    if args.jobs < 1:
        raise runner.ConfigError([f"--jobs: {args.jobs} is not a positive integer"])
    if args.out is not None:
        doc["output_dir"] = str(args.out)
    return runner.parse_config(json.dumps(doc), base_dir=base_dir)


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.subcommand
    if command == "diagnose":
        command = f"diagnose-{args.diagnostic}"
    try:
        config = _load_config(args, command)
    except runner.ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    out_dir = Path(config.base_dir) / config.output_dir
    try:
        if command in runner.RUN_COMMANDS or command == "sweep":
            report = runner.run_experiment(config, jobs=args.jobs)
            print(f"wrote {out_dir / 'report.json'} "
                  f"({len(report.per_seed)} seed(s))")
            return 0
        if command == "solve-exact":
            result = runner.solve_exact(config)
        elif command == "solve-matrix":
            result = runner.solve_matrix(config)
        else:
            result = runner.diagnose(config)
        paths = runner.emit_report({"command": command, "config": config.document,
                                    "result": result}, out_dir)
        print(serialize.dumps(result), end="")
        print(f"wrote {paths[0]}")
        return 0
    except Exception as exc:  # noqa: BLE001 - reported as exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
