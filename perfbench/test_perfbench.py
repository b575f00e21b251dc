"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They check that the tracer leaves the library untouched when it is off
and restores it afterwards, that traced call counts repeat exactly at one
seed, that the recorded answers agree with the oracle, that a wrong
answer fails its item, and that the benchmark emits exactly the metrics
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compoundness  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def bindings() -> dict[tuple[str, str], object]:
    """Every (module, attribute) in the library that binds a traced object,
    plus each traced class's ``__post_init__``."""
    originals = {id(obj) for obj in tracer.resolve().values()}
    out = {}
    for module in tracer.library_modules():
        for attr, value in vars(module).items():
            if id(value) in originals:
                out[(module.__name__, attr)] = value
                if isinstance(value, type):
                    out[(module.__name__, attr + ".__post_init__")] = value.__dict__["__post_init__"]
    return out


def small_items(workload, count=6):
    return lambda k: workload.items(3, k)[:count]


def traced_calls(name: str) -> list[float]:
    workload = workloads.WORKLOADS[name](compoundness, EXPECTED)
    workload.setup()
    t = tracer.Tracer()
    t.install()
    try:
        records, _ = measure.run_passes(workload, small_items(workload), 0, 0, passes=1, tracer=t)
    finally:
        t.remove()
    assert all(r["ok"] for r in records)
    return [v for k, (v, _) in sorted(t.metrics().items()) if k.endswith(".calls")]


def test_every_traced_name_resolves():
    originals = tracer.resolve()
    assert set(originals) == set(tracer.NAMES)
    assert all(callable(obj) for obj in originals.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_leaves_every_name_identical(name):
    before = bindings()
    workload = workloads.WORKLOADS[name](compoundness, EXPECTED)
    workload.setup()
    records, _ = measure.run_passes(workload, small_items(workload, 2), 0, 0, passes=1)
    assert all(r["ok"] for r in records)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_wraps_then_restores():
    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = bindings()
        assert not any(during.get(k) is v for k, v in before.items()
                       if not isinstance(v, type))
        assert compoundness.galois.enumerate_Q is compoundness.enumerate_Q
        assert compoundness.suites.enumerate_Q is compoundness.enumerate_Q
        assert compoundness.hilbert.Subspace.__post_init__.__wrapped__ is \
            before[("compoundness.hilbert", "Subspace.__post_init__")]
    finally:
        t.remove()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_exception():
    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        with pytest.raises(compoundness.TooLarge):
            compoundness.enumerate_Q(compoundness.chain(9), compoundness.chain(2))
    finally:
        t.remove()
    assert t.calls[tracer.NAMES.index("galois.enumerate_Q")] == 1
    assert all(bindings()[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", ["q-lattice", "verify-small"])
def test_traced_call_counts_repeat_at_one_seed(name):
    assert traced_calls(name) == traced_calls(name)


def child_calls(capsys, out: pathlib.Path, seconds: float) -> dict[str, float]:
    """The ``.calls`` metrics of one traced verify-small child run."""
    args = argparse.Namespace(workload="verify-small", seed=5, seconds=seconds, trace=1,
                              child="measure")
    assert measure.child(args, ROOT, out, "ready", "result ") == 0
    line = capsys.readouterr().out.splitlines()[-1]
    metrics = json.loads(line[len("result "):])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


def test_traced_child_repeats_call_counts_whatever_the_budget(capsys, tmp_path):
    first = child_calls(capsys, tmp_path, seconds=25)
    assert first["suites.run_suite.calls"] == \
        6 * workloads.VerifySmall.trace_passes
    assert child_calls(capsys, tmp_path, seconds=2) == first


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    t.install()
    try:
        compoundness.sasaki_s(compoundness.span([[1, 0], [0, 1]]),
                              compoundness.span([1, 1]))
    finally:
        t.remove()
    metrics = t.metrics()
    total_ms = metrics["hilbert.sasaki_s.us_per_call_p50"][0] / 1e3
    assert metrics["hilbert.sasaki_s.calls"][0] == 1
    assert 0 < metrics["hilbert.sasaki_s.self_ms"][0] < total_ms
    assert metrics["hilbert.meet_s.calls"][0] == 1
    assert metrics["hilbert.Subspace.calls"][0] > 1


def test_spans_record_parents_and_items(tmp_path):
    t = tracer.Tracer()
    t.install()
    try:
        t.item = 7
        compoundness.sasaki_s(compoundness.span([1, 0]), compoundness.span([1, 1]))
    finally:
        t.remove()
    t.write_spans(tmp_path / "spans.json")
    doc = json.loads((tmp_path / "spans.json").read_text())
    cols = doc["columns"]
    names = [doc["functions"][f] for f in cols["fn"]]
    root = cols["id"][names.index("hilbert.sasaki_s")]
    assert cols["parent"][names.index("hilbert.sasaki_s")] == -1
    assert cols["parent"][names.index("hilbert.meet_s")] == root
    assert set(cols["item"]) == {7}
    assert doc["spans_total"] == doc["spans_kept"] == len(names)


def test_span_budget_keeps_counting(monkeypatch):
    monkeypatch.setattr(tracer, "SPAN_BUDGET", 3)
    t = tracer.Tracer()
    t.install()
    try:
        for _ in range(4):
            compoundness.span([1, 0])
    finally:
        t.remove()
    assert len(t._span_cols["id"]) == 3
    assert t.calls[tracer.NAMES.index("hilbert.span")] == 4


def test_recorded_answers_match_the_oracle():
    small = [p for p in workloads.Q_POOL if "boolean(3)" not in p and "mo(3)" not in p][:40]
    fresh = oracle.compute_expected(small, workloads.QUANTALE_CLASSES[:6])
    for key, value in fresh["q_lattice"].items():
        assert EXPECTED["q_lattice"][key] == value
    for key, value in fresh["quantale"].items():
        assert EXPECTED["quantale"][key] == value
    wanted = {f"{a}->{b}" for a, b in workloads.Q_POOL + workloads.Q_PROBE}
    assert set(EXPECTED["q_lattice"]) == wanted
    assert set(EXPECTED["quantale"]) == {workloads.class_key(n, c)
                                         for n, c in workloads.QUANTALE_CLASSES}


def test_oracle_matches_enumerate_q_on_one_pair():
    q = compoundness.enumerate_Q(compoundness.mo(2).base, compoundness.boolean(2).base)
    want = EXPECTED["q_lattice"]["mo(2)->boolean(2)"]
    assert len(q) == want["maps"]
    assert oracle.tables_digest([f.table for f in q.maps]) == want["sha256"]


def test_a_wrong_answer_fails_the_item():
    workload = workloads.QLattice(compoundness, EXPECTED)
    workload.setup()
    bad = dict(EXPECTED["q_lattice"])
    bad["chain(2)->chain(3)"] = {**bad["chain(2)->chain(3)"], "maps": 4}
    workload.expected = {**EXPECTED, "q_lattice": bad}
    latency, check_s, outcome = measure.run_item(workload, workloads.Item(("chain(2)", "chain(3)")))
    assert not outcome.ok and latency > 0 and check_s > 0


def test_a_wrong_q_lattice_fails_the_item():
    workload = workloads.QLattice(compoundness, EXPECTED)
    workload.setup()
    item = workloads.Item(("chain(3)", "chain(3)"))
    *maps, q_leq, q_join = workload.run(item)
    assert workload.check(item, (*maps, q_leq, q_join)).ok

    wrong_leq = q_leq.copy()
    wrong_leq[-1, 0] = True
    outcome = workload.check(item, (*maps, wrong_leq, q_join))
    assert not outcome.ok and "Q order" in outcome.detail

    wrong_join = q_join.copy()
    wrong_join[0, 0] = wrong_join[-1, -1]
    outcome = workload.check(item, (*maps, q_leq, wrong_join))
    assert not outcome.ok and "Q join" in outcome.detail


def test_a_wrong_quantale_answer_fails_the_item():
    workload = workloads.Quantale(compoundness, EXPECTED)
    workload.setup()
    # states listed against property order, so the check must relabel them
    item = workloads.Item(("chain(3)", (2, 1)), {"states": ("a", "b")})
    members, report = workload.run(item)
    assert workload.check(item, (members, report)).ok

    broken = dataclasses.replace(report, right_distributive=False)
    outcome = workload.check(item, (members, broken))
    assert not outcome.ok and "right_distributive" in outcome.detail

    # same size, one member swapped for a map outside the quantale
    space = members[0].space
    outsider = next(images for images in itertools.product(range(4), repeat=2)
                    if not compoundness.is_member(compoundness.TransitionMap(space, images)))
    swapped = (compoundness.TransitionMap(space, outsider),) + members[1:]
    outcome = workload.check(item, (swapped, report))
    assert not outcome.ok and "member set" in outcome.detail


def test_failed_items_rank_slowest():
    records = [{"key": i, "latency_s": 0.001, "ok": True} for i in range(99)]
    records.append({"key": 99, "latency_s": 0.0001, "ok": False})
    metrics = measure.end_to_end(records)
    assert metrics["correct_frac"][0] == pytest.approx(0.99)
    assert metrics["item_ms_p90"][0] == pytest.approx(1.0)


def test_spec_lists_every_emitted_metric():
    t = tracer.Tracer()
    emitted = set(t.metrics()) | {workloads.PROBE_METRIC, "bench.self_ms",
                                  "check.max_discrepancy", "trace.overhead_frac",
                                  "input.repeat_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} == emitted
    e2e = set(measure.end_to_end([{"key": 0, "latency_s": 0.1, "ok": True}] * 2)) | {"setup_s"}
    assert {m["name"] for m in SPEC["end_to_end"]} == e2e
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "expected.json").write_text((HERE / "expected.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
