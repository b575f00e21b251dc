"""The measuring child process: set-up, the timed loop and its metrics."""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Outcome

HERE = pathlib.Path(__file__).resolve().parent
MIN_ITEMS = 100


def load_library(root: pathlib.Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import compoundness

    if pathlib.Path(compoundness.__file__).resolve().parent != src / "compoundness":
        raise SystemExit(f"perfbench: imported compoundness from {compoundness.__file__}, "
                         f"not from {src}")
    return compoundness


def run_item(workload, item) -> tuple[float, float, Outcome]:
    """Latency of one item (the library's work only) and its check time."""
    start = time.perf_counter()
    ran = None
    try:
        result = workload.run(item)
        ran = time.perf_counter()
        outcome = workload.check(item, result)
    except Exception as exc:  # any raise, MemoryError included, is a failed item
        outcome = Outcome(False, detail=f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    if ran is None:
        ran = end
    return ran - start, end - ran, outcome


def run_passes(workload, pass_items, budget_s: float, min_items: int,
               passes: int | None = None, tracer=None) -> tuple[list[dict], int]:
    """Run an odd number of whole passes (or exactly ``passes`` of them).

    After each odd pass the run stops, unless it has fewer than
    ``min_items`` items or two more passes, at the mean pass time so far,
    would end within 1.1 x ``budget_s`` of wall time. On a pass of odd
    size the median is then one item's latency, never the mean of two
    different items.
    """
    records: list[dict] = []
    start = time.perf_counter()
    done = 0
    while passes is None or done < passes:
        for item in pass_items(done):
            if tracer is not None:
                tracer.item = len(records)
            latency, check_s, outcome = run_item(workload, item)
            records.append({"key": item.key, "latency_s": latency, "ok": bool(outcome.ok),
                            "discrepancy": float(outcome.discrepancy),
                            "check_s": check_s, "detail": outcome.detail})
        done += 1
        if passes is None and done % 2 and len(records) >= min_items:
            wall = time.perf_counter() - start
            if wall + 2 * wall / done > 1.1 * budget_s:
                break
    return records, done


def end_to_end(records: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = [r["latency_s"] for r in records]
    slowest = max(latencies)
    # a failed item ranks as slowest, so a fast failure never reads as a speed-up
    ranked = sorted(r["latency_s"] if r["ok"] else slowest for r in records)
    ok = sum(r["ok"] for r in records)
    return {
        "items_per_s": (ok / sum(latencies), "1/s"),
        "item_ms_p50": (statistics.median(ranked) * 1e3, "ms"),
        "item_ms_p90": (statistics.quantiles(ranked, n=10, method="inclusive")[8] * 1e3, "ms"),
        "correct_frac": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def repeat_frac(records: list[dict]) -> float:
    seen, repeats = set(), 0
    for r in records:
        repeats += r["key"] in seen
        seen.add(r["key"])
    return repeats / len(records)


def blas_info() -> dict:
    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["blas_threads"] = int(getattr(lib, symbol)())
                return info
    return info


def source_digest(root: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def stamp(args, root, workload, records, passes) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "items_per_run": len(records), "passes": passes,
        "repeat_frac": repeat_frac(records),
        "commit": commit(root), "src_sha256": source_digest(root),
        "python": platform.python_version(), "numpy": np.__version__, **blas_info(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "address_space_cap": workload.address_space_cap,
        "failures": [{"key": repr(r["key"]), "detail": r["detail"]}
                     for r in records if not r["ok"]][:10],
    }


def child(args, root: pathlib.Path, out: pathlib.Path, ready: str, result: str) -> int:
    cls = WORKLOADS[args.workload]
    if cls.address_space_cap:
        resource.setrlimit(resource.RLIMIT_AS, (cls.address_space_cap,) * 2)
    cp = load_library(root)
    expected = json.loads((HERE / "expected.json").read_text())
    workload = cls(cp, expected)
    workload.setup()
    first = workload.items(args.seed, 0)

    def pass_items(k):
        return first if k == 0 else workload.items(args.seed, k)

    _, _, warm = run_item(workload, workload.warmup_item())
    if not warm.ok:
        raise SystemExit(f"perfbench: warm-up item failed: {warm.detail}")
    # keep the collector from rescanning set-up objects inside timed items
    gc.freeze()
    print(ready, flush=True)
    if args.child == "setup":
        return 0

    if not args.trace:
        records, passes = run_passes(workload, pass_items, args.seconds, MIN_ITEMS)
        metrics = end_to_end(records)
    else:
        from tracer import Tracer

        passes = workload.trace_passes
        records, _ = run_passes(workload, pass_items, 0, 0, passes=passes)
        metrics = {k: (v, "count") for k, v in workload.probe().items()}
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_passes(workload, pass_items, 0, 0, passes=passes, tracer=tracer)
        finally:
            tracer.remove()
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"trace-{args.workload}-seed{args.seed}.json")
        metrics.update(tracer.metrics())
        untraced_s = sum(r["latency_s"] for r in records)
        metrics.update({
            "bench.self_ms": (sum(r["check_s"] for r in records) * 1e3, "ms"),
            "check.max_discrepancy": (max(r["discrepancy"] for r in records + traced), "abs"),
            "trace.overhead_frac": (sum(r["latency_s"] for r in traced) / untraced_s - 1, "ratio"),
            "input.repeat_frac": (repeat_frac(records), "ratio"),
        })
        records = records + traced
    failed = sum(not r["ok"] for r in records)
    print(result + json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "stamp": stamp(args, root, workload, records, passes),
        "items": [[repr(r["key"]), r["latency_s"], r["ok"]] for r in records],
    }), flush=True)
    return 0
