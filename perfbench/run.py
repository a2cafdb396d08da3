"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload soak --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line carries every end-to-end metric, with
``--trace 1`` every per-layer metric (the spans are also written to
``.perfbench/spans-<workload>-<seed>.jsonl``).  Rejected placements,
drops and a list of failed output checks go to standard error.

``setup_s`` is the median of :data:`SETUP_SAMPLES` cold starts, each a
fresh interpreter that imports the program and builds the workload up to
its first timed operation; it is timed from process launch to the
child's ready line.  Half of the cold starts run before the workload and
half after it, so that the median spans the run's wall time rather than
one moment of the host's speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("soak", "federation", "paper_study")

#: Every end-to-end metric with its unit, in report order.
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("cycle_p50_ms", "ms"),
    ("cycle_tail_ms", "ms"),
    ("schedule_p50_ms", "ms"),
    ("schedule_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_completed", "count"),
    ("window_cost_mean", "cost_unit"),
    ("turnaround_mean", "time_unit"),
)

SETUP_SAMPLES = 6
READY = "ready"


def _use_checkout() -> None:
    """Put the checkout's ``src`` and the benchmark package on the path."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path[:0] = [ROOT, SRC]


def _workload(name: str):
    return importlib.import_module(f"perfbench.{name}")


def setup_probe(name: str, seed: int) -> None:
    """The child side of one cold start: set up, say so, tear down."""
    module = _workload(name)
    if name == "soak":
        module.setup(seed, module.SoakSizes())
    elif name == "paper_study":
        module.setup(module.StudySizes())
    else:
        import asyncio

        asyncio.run(module.setup_probe(seed, module.FederationSizes(), _ready))
        return
    _ready()


def _ready() -> None:
    sys.stdout.write(READY + "\n")
    sys.stdout.flush()


def cold_starts(name: str, seed: int, samples: int) -> list[float]:
    """Seconds from launching a fresh interpreter to its ready line."""
    timings = []
    for _ in range(samples):
        started = perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline().strip()
            elapsed = perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line != READY or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
        timings.append(elapsed)
    return timings


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; returns the result object the command prints.

    ``sizes`` overrides the workload's input sizes (the smoke tests use
    the modules' ``SMALL`` sizes).
    """
    from perfbench.stats import median
    from perfbench.spans import PER_LAYER, per_layer_metrics

    module = _workload(name)
    before = 0 if trace else setup_samples // 2
    after = 0 if trace else setup_samples - before
    setup = cold_starts(name, seed, before)
    kwargs = {} if sizes is None else {"sizes": sizes}
    result = module.run(seed, seconds, trace, **kwargs)
    setup += cold_starts(name, seed, after)
    if trace:
        recorder = result["recorder"]
        values = per_layer_metrics(recorder, result["traced_wall"], result["overhead"])
        units = dict(PER_LAYER)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        recorder.write(os.path.join(out_dir, f"spans-{name}-{seed}.jsonl"))
    else:
        values = dict(result["metrics"], setup_s=median(setup))
        units = dict(END_TO_END)
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]} for metric in units
        },
        "problems": result["problems"],
        "decisions": result["decisions"],
        "samples": result.get("samples", {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _use_checkout()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.pop("problems")[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps({"decisions": outcome.pop("decisions"), "samples": outcome.pop("samples")}),
        file=sys.stderr,
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
