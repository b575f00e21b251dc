"""Verification suite runner: determinism, coverage, failure reporting."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import compoundness.suites
from compoundness.cascade import check_prop2
from compoundness.errors import UnknownSuite
from compoundness.hilbert import Subspace
from compoundness.reporting import LawFailure, LawRecorder, VerificationReport
from compoundness.suites import SUITE_NAMES, run_suite


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_on_small_runs(name):
    trials = 3 if name == "quantale" else 25
    report = run_suite(name, seed=123, trials=trials)
    assert report.ok, report.failures[:3]
    assert report.suite == name
    assert report.trials == trials


def test_suite_names_keep_their_order():
    assert SUITE_NAMES == ("galois", "orthomodular", "sasaki", "tensor-iso", "quadruple",
                           "cascade-born", "prop2", "quantale")


def test_quantale_suite_records_every_law_of_the_report(monkeypatch):
    check = compoundness.suites.check_quantale_laws
    monkeypatch.setattr(
        compoundness.suites, "check_quantale_laws",
        lambda *args: dataclasses.replace(check(*args), bottom_is_empty=False),
    )
    report = run_suite("quantale", seed=0, trials=2)
    assert {f.law for f in report.failures} == {"quantale-bottom-is-empty"}


def test_sasaki_suite_checks_the_library_projection_for_isotonicity(monkeypatch):
    # a Sasaki projection that drops everything under a full second argument
    # is not isotone in it; the suite must see that in sasaki_s itself
    sasaki = compoundness.suites.sasaki_s
    monkeypatch.setattr(
        compoundness.suites, "sasaki_s",
        lambda a, b: Subspace.zero(a.ambient_dim) if b.dim == b.ambient_dim else sasaki(a, b),
    )
    report = run_suite("sasaki", seed=0, trials=60)
    assert "sasaki-isotone" in {f.law for f in report.failures}


def test_zero_trials_is_a_trivial_pass():
    report = run_suite("galois", seed=1, trials=0)
    assert report.ok and report.max_discrepancy == 0.0


def test_unknown_suite_is_rejected():
    with pytest.raises(UnknownSuite):
        run_suite("nope", seed=1, trials=1)


def test_reports_are_reproducible_modulo_elapsed():
    first = run_suite("cascade-born", seed=99, trials=20)
    second = run_suite("cascade-born", seed=99, trials=20)
    assert first.to_json(include_elapsed=False) == second.to_json(include_elapsed=False)


def test_different_seeds_change_the_sampled_discrepancies():
    a = run_suite("orthomodular", seed=1, trials=40)
    b = run_suite("orthomodular", seed=2, trials=40)
    assert a.max_discrepancy != b.max_discrepancy


def test_report_serialization_shape():
    report = VerificationReport(
        suite="demo",
        seed=7,
        trials=2,
        failures=(LawFailure("law", "x=1", 0.5),),
        max_discrepancy=0.5,
        elapsed_s=0.01,
    )
    payload = json.loads(report.to_json())
    assert payload["failures"][0]["discrepancy"] == 0.5
    assert not report.ok
    assert "elapsed_s" not in json.loads(report.to_json(include_elapsed=False))


def test_impossible_tolerance_produces_recorded_failures():
    report = run_suite("orthomodular", seed=5, trials=30, tol=0.0)
    assert not report.ok
    assert all(f.discrepancy > 0.0 for f in report.failures)
    assert report.max_discrepancy == max(f.discrepancy for f in report.failures)


class _Unrenderable:
    def __repr__(self):
        raise AssertionError("inputs of a passing check must not be rendered")


def test_law_recorder_passing_check_raises_only_the_maximum():
    rec = LawRecorder(tol=1e-9)
    rec.check("law", 1e-12, a=_Unrenderable())
    assert rec.failures == [] and rec.ok
    assert rec.max_discrepancy == 1e-12


def test_law_recorder_renders_failing_arrays_by_sorted_key_on_one_line():
    rec = LawRecorder(tol=0.0)
    rec.check("law", 0.5, rho=np.eye(2), a=np.array([[1.0], [0.0]]), dim=2)
    assert rec.failures == [LawFailure("law", "a=[[1.], [0.]] dim=2 rho=[[1.,0.], [0.,1.]]", 0.5)]
    rec.check("other", 0.25, "given text", a=np.eye(2))
    assert rec.failures[-1].inputs == "given text"
    assert not rec.ok


def test_check_prop2_records_into_the_recorder_it_is_given():
    # float noise alone trips tol 0, so every call records failures
    first, second, both = LawRecorder(0.0), LawRecorder(0.0), LawRecorder(0.0)
    assert check_prop2(2, 5, np.random.default_rng(1), first) is None
    check_prop2(3, 5, np.random.default_rng(2), second)
    check_prop2(2, 5, np.random.default_rng(1), both)
    check_prop2(3, 5, np.random.default_rng(2), both)
    assert first.failures and second.failures
    assert both.failures == first.failures + second.failures
    assert both.max_discrepancy == max(first.max_discrepancy, second.max_discrepancy)


def test_law_recorder_ok_exactly_when_nothing_failed():
    rec = LawRecorder(tol=0.5)
    rec.require("holds", True)
    rec.check("within", 0.5)
    assert rec.ok
    rec.require("broken", False)
    assert not rec.ok and len(rec.failures) == 1
