"""Steadiness command: repeat every workload and report each metric's spread.

    python3 perfbench/steady.py --runs 10 --first-seed 100 --out set1.jsonl
    python3 perfbench/steady.py --compare set1.jsonl set2.jsonl

Runs the benchmark command from ``BENCHMARK.json`` ``--runs`` times per
workload, alternating workloads (the starting workload rotates each pass)
and giving every run its own seed.  For each end-to-end metric it prints
the median and quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread ``(q3 - q1) / median``, and flags every spread above
the metric's bound.  It also flags any run that was not correct, and
workloads whose share of failed operations differs between runs.  Each
run's result line is appended to ``--out`` as it arrives.

``--compare A B`` reads two such files and flags every metric whose
median in B is worse than in A by more than its bound, and any workload
whose failed share differs between the two sets.  Exits 1 when anything
is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import median, quartiles  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """One untraced run of the benchmark command; its result object."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def failed_shares(results: list[dict]) -> set[float]:
    return {result["failed"] / result["attempted"] for result in results}


def summarize(spec: dict, runs: dict[str, list[dict]]) -> list[str]:
    """Print the spread table; returns the flags raised."""
    flags: list[str] = []
    for workload, results in runs.items():
        bad = [result.get("seed", index) for index, result in enumerate(results)
               if not result["correct"]]
        if bad:
            flags.append(f"{workload}: runs with seeds {bad} failed their output checks")
        shares = failed_shares(results)
        if len(shares) > 1:
            flags.append(f"{workload}: failed share differs between runs: {sorted(shares)}")
        print(f"\n{workload}: {len(results)} runs, failed share {sorted(shares)}, "
              f"attempted {min(r['attempted'] for r in results)}.."
              f"{max(r['attempted'] for r in results)}")
        if len(results) < 2:
            continue
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, mid, q3 = quartiles([result["metrics"][name]["value"] for result in results])
            spread = (q3 - q1) / mid
            mark = ""
            if spread > metric["bound"]:
                mark = "  SPREAD ABOVE BOUND"
                flags.append(f"{workload} {name}: spread {spread:.3f} > {metric['bound']}")
            elif spread > metric["bound"] / 3:
                mark = "  above a third of the bound"
            print(f"  {name:18s} {mid:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} "
                  f"{metric['bound']:6.2f}{mark}")
    return flags


def compare(spec: dict, first: dict[str, list[dict]], second: dict[str, list[dict]]) -> list[str]:
    """Flag medians of ``second`` worse than ``first`` by more than the bound."""
    flags: list[str] = []
    for workload in first:
        print(f"\n{workload}: median first -> second (change, bound)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = median([r["metrics"][name]["value"] for r in first[workload]])
            b = median([r["metrics"][name]["value"] for r in second[workload]])
            worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
            mark = ""
            if worse > metric["bound"]:
                mark = "  WORSE BEYOND BOUND"
                flags.append(f"{workload} {name}: second median worse by {worse:.3f}")
            print(f"  {name:18s} {a:12.4f} -> {b:12.4f} ({-worse:+.3f}, {metric['bound']:.2f}){mark}")
        if failed_shares(first[workload]) != failed_shares(second[workload]):
            flags.append(f"{workload}: failed share differs between the sets")
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="append each result line here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        first, second = (load_runs(path) for path in args.compare)
        flags = summarize(spec, first) + summarize(spec, second) + compare(spec, first, second)
    else:
        workloads = [workload["name"] for workload in spec["workloads"]]
        runs: dict[str, list[dict]] = {workload: [] for workload in workloads}
        seed = args.first_seed
        for index in range(args.runs):
            shift = index % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                result = dict(run_once(spec, workload, seed), seed=seed)
                runs[workload].append(result)
                if args.out:
                    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
                    with open(args.out, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps({"workload": workload, **result}) + "\n")
                print(f"run {index} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
                seed += 1
        flags = summarize(spec, runs)
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
