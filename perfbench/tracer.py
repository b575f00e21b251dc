"""Spans around calls into the library's public functions, from outside.

:class:`Tracer` replaces each traced function, in every ``compoundness``
module namespace that binds it, with a wrapper that records a span: the
function, start, end, parent span and item id. A traced class gets the
wrapper on ``__post_init__``, so its span is the validation its
constructor runs. :meth:`Tracer.remove` puts every original object back.

Per function the tracer keeps exact call counts, self time (span time
minus the time its child spans cover) and every call's duration. Full
spans are kept up to ``SPAN_BUDGET`` per run and written out as JSON;
later calls still count in the per-function figures.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

TRACED = {
    "lattice": ("lattice_from_order",),
    "galois": ("enumerate_Q", "is_join_preserving", "galois_dual", "adjoint_of_meetmap"),
    "hilbert": ("span", "meet_s", "join_s", "ortho_s", "sasaki_s", "Subspace"),
    "operators": ("from_tensor", "quadruple"),
    "density": ("carrier", "lueders", "transition_probability", "DensityState"),
    "cascade": ("run_cascade", "born_probability", "check_prop2"),
    "quantale": ("enumerate_members", "check_quantale_laws", "transition_tables",
                 "epimorphism_check", "property_propagation", "is_member", "compose",
                 "union_join"),
    "suites": ("run_suite",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
SPAN_BUDGET = 100_000

# name -> (parent, child, output count from the parent's return value,
#          True when the ratio is outputs per child call)
RATIOS = {
    "galois.enumerate_Q.checks_per_map":
        ("galois.enumerate_Q", "galois.is_join_preserving", len, False),
    "quantale.enumerate_members.members_per_check":
        ("quantale.enumerate_members", "quantale.is_member", len, True),
    "quantale.check_quantale_laws.propagations_per_member":
        ("quantale.check_quantale_laws", "quantale.property_propagation",
         lambda report: report.members, False),
    "cascade.run_cascade.quadruples_per_call":
        ("cascade.run_cascade", "operators.quadruple", lambda _: 1, False),
    "cascade.run_cascade.subspaces_per_call":
        ("cascade.run_cascade", "hilbert.Subspace", lambda _: 1, False),
}


def library_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "compoundness" or name.startswith("compoundness."))]


def resolve() -> dict[str, object]:
    """The original object behind every traced name."""
    return {f"{mod}.{fn}": getattr(sys.modules[f"compoundness.{mod}"], fn)
            for mod, fns in TRACED.items() for fn in fns}


class Tracer:
    def __init__(self):
        self.item = -1
        n = len(NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.durations = [array("d") for _ in range(n)]
        self.ratio_sums = {name: [0, 0] for name in RATIOS}
        self.spans_total = 0
        self._span_cols = {k: array(t) for k, t in
                           (("id", "l"), ("fn", "h"), ("start", "d"), ("end", "d"),
                            ("parent", "l"), ("item", "l"))}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        originals = resolve()
        modules = library_modules()
        ratio_of = {parent: [] for parent, *_ in RATIOS.values()}
        for name, (parent, child, outputs, inverse) in RATIOS.items():
            ratio_of[parent].append((name, NAMES.index(child), outputs, inverse))
        for fid, name in enumerate(NAMES):
            original = originals[name]
            if isinstance(original, type):
                hook = original.__dict__["__post_init__"]
                self._restore.append((original, "__post_init__", hook))
                setattr(original, "__post_init__", self._wrap(fid, hook, ()))
                continue
            wrapper = self._wrap(fid, original, tuple(ratio_of.get(name, ())))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fid: int, fn, ratios):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, durations = self.calls, self.self_s, self.durations[fid]
        cols = self._span_cols
        col_id, col_fn, col_start = cols["id"], cols["fn"], cols["start"]
        col_end, col_parent, col_item = cols["end"], cols["parent"], cols["item"]
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer.spans_total
            tracer.spans_total = span_id + 1
            before = [calls[child] for _, child, _, _ in ratios]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[fid] += 1
                self_s[fid] += elapsed - frame[1]
                durations.append(elapsed)
                if stack:
                    stack[-1][1] += elapsed
                if span_id < SPAN_BUDGET:
                    col_id.append(span_id)
                    col_fn.append(fid)
                    col_start.append(start)
                    col_end.append(end)
                    col_parent.append(stack[-1][0] if stack else -1)
                    col_item.append(tracer.item)
                if result is not None:
                    for (name, child, outputs, inverse), old in zip(ratios, before):
                        sums = tracer.ratio_sums[name]
                        count, out = calls[child] - old, outputs(result)
                        sums[0] += out if inverse else count
                        sums[1] += count if inverse else out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for fid, name in enumerate(NAMES):
            durations = self.durations[fid]
            out[f"{name}.calls"] = (float(self.calls[fid]), "count")
            out[f"{name}.self_ms"] = (self.self_s[fid] * 1e3, "ms")
            out[f"{name}.us_per_call_p50"] = (
                statistics.median(durations) * 1e6 if durations else 0.0, "us")
        for name, (num, den) in self.ratio_sums.items():
            out[name] = (num / den if den else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        cols = self._span_cols
        doc = {
            "functions": list(NAMES),
            "clock": "time.perf_counter seconds",
            "spans_total": self.spans_total,
            "spans_kept": len(cols["id"]),
            "columns": {k: v.tolist() for k, v in cols.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
