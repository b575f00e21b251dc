"""Benchmark for compoundness: whole verification tasks, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload q-lattice --seed 1 --seconds 25 --trace 0

Workloads: q-lattice, quantale, verify-small, cascade-sweep (see
``workloads.py``). Each is a closed loop from one client: one process runs
the next item only when the previous one returned, and checks every
result. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is
repeated with every traced library function wrapped (``tracer.py``) and
the metrics are per layer. The line before it stamps the environment.

The measuring process is a child of this one, so set-up time counts from
process start; set-up is measured in several children and reported as
the median. Results and spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
READY = "perfbench-ready"
RESULT = "perfbench-result "


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn(args: argparse.Namespace, role: str) -> tuple[float, dict | None]:
    """Run one child; return its set-up seconds and, if measuring, its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", role]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.rstrip("\n") == READY:
                setup_s = time.perf_counter() - start
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stdout.write(line)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or (role == "measure" and result is None):
        raise SystemExit(f"perfbench: {role} child failed with exit code {code}")
    return setup_s, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        import measure

        return measure.child(args, ROOT, OUT, READY, RESULT)
    if not (ROOT / "src" / "compoundness" / "__init__.py").is_file():
        print(f"perfbench: no compoundness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(spawn(args, "setup")[0])
    setup_s, result = spawn(args, "measure")
    setups.append(setup_s)
    metrics = result.pop("metrics")
    items = result.pop("items")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["stamp"]["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "metrics": metrics, "items": items}))
    print(json.dumps({"stamp": result["stamp"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
