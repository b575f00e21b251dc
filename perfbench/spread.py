"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload quantale --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the bound from ``BENCHMARK.json``. Each
run's result line is appended to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = proc.stdout.strip().splitlines()[-1]
        with log.open("a") as fh:
            fh.write(line + "\n")
        result = json.loads(line)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    for m in metrics:
        vals = values[m["name"]]
        bound = m.get("bound")
        print(f"{m['name']:<28} median {statistics.median(vals):<14.6g} "
              f"spread {spread(vals):.4f}" + (f"  bound {bound}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
