"""Command-line front end.

One subcommand per experiment kind; each takes a config file plus optional
seed/output overrides, and a trials override where the kind has trials.
Failures print a machine-readable JSON error record to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import ConfigError
from .harness import (KINDS, OUT_DIR_ENV, SCHEMAS, config_digest, run, validate_config, write_meta,
                      write_outputs)
from .serialize import read_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipc",
        description="Identification-code experiments over Poisson ISI channels",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output directory")
        if "trials" in SCHEMAS[kind][0]:
            p.add_argument("--trials", type=int, default=None, help="override trial count")
    return parser


def _error_record(kind: str, **fields) -> str:
    return json.dumps({"error": kind, **fields}, sort_keys=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = read_json(args.config)
    except (OSError, ValueError) as exc:
        print(_error_record("config-load", message=str(exc)), file=sys.stderr)
        return 2

    overrides = {"master_seed": args.seed, "out_dir": args.out,
                 "trials": getattr(args, "trials", None)}
    try:
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])
        if raw.setdefault("kind", args.kind) != args.kind:
            raise ConfigError(
                [f"config kind {raw['kind']!r} does not match subcommand {args.kind!r}"])
        raw.update({k: v for k, v in overrides.items() if v is not None})
        config = validate_config(raw)
    except ConfigError as exc:
        print(_error_record("config", violations=exc.violations), file=sys.stderr)
        return 2

    out_dir = config.get("out_dir") or os.environ.get(OUT_DIR_ENV) or "dipc-out"
    started = time.time()
    try:
        output = run(config)
        written = write_outputs(output, out_dir)
        write_meta(out_dir, started, time.time())
    except Exception as exc:
        print(_error_record("runtime", message=str(exc)), file=sys.stderr)
        return 1

    print(json.dumps({
        "kind": config["kind"],
        "config_digest": config_digest(config),
        "rows": len(output.rows),
        "out_dir": out_dir,
        "files": written,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
