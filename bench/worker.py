"""One benchmark process: set up dipc, then run experiments one after another.

Started by run.py in a fresh interpreter.  It imports dipc from the
checkout's ``src/``, validates the config and prints a ``ready`` line; the
parent times set-up up to that line.  A ``reference`` line follows with the
time of a reference block of fixed work (hostspeed.py), the host's speed
right after set-up.  Unless ``--setup-only`` is given it
then runs ``harness.run`` + ``harness.write_outputs`` until the deadline,
one experiment at a time, writing experiment ``k`` to ``<out>/rep-k``.
Experiment 0 is a warm-up that run.py checks but does not time.  With
``--trace 1`` every second experiment runs under the tracer.  The reference
block is timed again after each experiment, so every experiment carries the
host's speed just before and just after it.

Every record is one JSON object on its own stdout line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="raw experiment config (JSON file)")
    parser.add_argument("--out", help="directory for the experiments' result files")
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="time.time() after which no experiment starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dipc
    from dipc import harness

    if not Path(dipc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dipc imported from {dipc.__file__}, not from {src}")
    raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    harness.validate_config(raw)
    _emit({"event": "ready"})

    from hostspeed import reference_block

    reference_before = reference_block()
    _emit({"event": "reference", "reference_s": reference_before})
    if args.setup_only:
        return 0

    import numpy
    import scipy

    from tracer import Tracer

    rep = 0
    last = 0.0
    # At least one timed experiment after the warm-up; traced runs also need
    # an untraced partner for the tracing overhead.
    while rep < 2 + args.trace or time.time() + last <= args.deadline:
        began = time.perf_counter()
        tracer = Tracer() if args.trace and rep % 2 == 1 else None
        record = {"event": "experiment", "rep": rep, "traced": tracer is not None,
                  "warmup": rep == 0}
        try:
            if tracer is not None:
                tracer.install()
            try:
                config = harness.validate_config(raw)
                start = time.perf_counter()
                output = harness.run(config)
                harness.write_outputs(output, Path(args.out) / f"rep-{rep}")
                record["run_s"] = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception as exc:  # a failed experiment is counted, the loop goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            record["trace"] = tracer.report()
        reference_after = reference_block()
        record["reference_s"] = [reference_before, reference_after]
        reference_before = reference_after
        _emit(record)
        last = time.perf_counter() - began
        rep += 1

    _emit({
        "event": "done",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
