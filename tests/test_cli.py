"""The command-line front door: subcommands, exit codes, output modes."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import compoundness.cascade
from compoundness import cli, jsonio
from compoundness.catalog import boolean, chain, mo
from compoundness.cli import main
from compoundness.operators import TensorVector
from compoundness.quantale import ProperStateSpace, check_quantale_laws


REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


@pytest.fixture()
def files(tmp_path):
    def write(name: str, payload) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def test_lattice_check_valid(files, capsys):
    path = files("mo2.json", jsonio.dump_lattice(mo(2)))
    assert main(["lattice", "check", path]) == 0
    out = capsys.readouterr().out
    assert "valid lattice" in out and "6 elements" in out


def test_lattice_check_invalid_exits_one(files, capsys):
    payload = {"elements": ["a", "b", "c", "d"],
               "leq": [[0, 2], [0, 3], [1, 2], [1, 3]]}
    path = files("bowtie.json", payload)
    assert main(["lattice", "check", path]) == 1
    assert "violation" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["lattice", "check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


_CHAIN2 = {"elements": ["0", "1"], "leq": [[0, 1]]}
_MATRIX = {"rows": 2, "cols": 1, "re": [[1.0], [0.0]], "im": [[0.0], [0.0]]}
_TV_TO_MATRIX = ["convert", "--from", "tv-json", "--to", "matrix-json"]


@pytest.mark.parametrize("command, payload", [
    (["lattice", "check"], {"elements": ["a", "a"], "leq": [[0, 1]]}),
    (["lattice", "check"], dict(_CHAIN2, ortho=[1])),
    (["quantale", "check"], {"states": ["p", "p"], "lattice": _CHAIN2, "c_map": [1, 1]}),
    (["compound", "quadruple"], dict(_MATRIX, rows="x")),
    (["compound", "quadruple"], dict(_MATRIX, rows=None)),
    (["compound", "quadruple"], dict(_MATRIX, re=[[1.0, 0.0], [0.0]])),
    (["compound", "quadruple"], dict(_MATRIX, rows=2.9, cols=True)),
    (["compound", "quadruple"], dict(_MATRIX, rows=2.0)),
    (["compound", "quadruple"], dict(_MATRIX, cols=True)),
    (["lattice", "check"], ["0", "1"]),
    (["lattice", "check"], {"elements": [0, 1], "leq": [[0, 1]]}),
    (["lattice", "check"], {"elements": ["0", "1"], "leq": [[0, 1, 1]]}),
    (["lattice", "check"], dict(_CHAIN2, ortho=["1", "0"])),
    (["galois", "dual"], {"source": _CHAIN2, "target": _CHAIN2, "table": ["0", "1"]}),
    (_TV_TO_MATRIX, {"coefficients": {"re": [1.0, 0.0], "im": [0.0]},
                     "left_basis": _MATRIX, "right_basis": _MATRIX}),
    (["quantale", "check"], {"states": [1, 2], "lattice": _CHAIN2, "c_map": [1, 1]}),
    (["quantale", "check"], {"states": ["p", "q"], "lattice": _CHAIN2, "c_map": ["1", "1"]}),
    (["quantale", "check"],
     dict(json.loads((DATA / "three-state-space.json").read_text()), c_map=[1, 1, 7])),
    (["lattice", "check"], dict(_CHAIN2, ortho=[1, 9])),
    (["lattice", "check"], {"elements": ["0", "1", "2"], "leq": [[0, 1], [1, 4]]}),
    (["galois", "dual"], {"source": _CHAIN2, "target": _CHAIN2, "table": [0, 9]}),
    (["galois", "dual"], {"source": _CHAIN2, "target": _CHAIN2, "table": [0, 1, 1]}),
    (["quantale", "check"], {"states": ["p"], "lattice": _CHAIN2, "c_map": [True]}),
    (["lattice", "check"], dict(_CHAIN2, ortho=[True, False])),
    (["galois", "dual"], {"source": _CHAIN2, "target": _CHAIN2, "table": [False, True]}),
    (["lattice", "check"], {"elements": ["0", "1"], "leq": [[False, True]]}),
    (["lattice", "check"], {"elements": ["0", "1"], "leq": [[0.0, 1]]}),
    (["lattice", "check"], dict(_CHAIN2, ortho=[1.0, 0.0])),
    (["lattice", "check"], dict(_CHAIN2, ortho=1)),
    (["galois", "dual"], {"source": _CHAIN2, "target": _CHAIN2, "table": [0.0, 1.0]}),
    (["galois", "dual"], {"source": _CHAIN2, "target": _CHAIN2, "table": 1}),
    (["quantale", "check"], {"states": ["p"], "lattice": _CHAIN2, "c_map": [1.0]}),
    (["quantale", "check"], {"states": ["p"], "lattice": _CHAIN2, "c_map": 1}),
], ids=["duplicate-elements", "short-ortho", "duplicate-states", "rows-string",
        "rows-null", "ragged-re", "rows-float-cols-bool", "rows-integral-float", "cols-bool",
        "lattice-not-object", "elements-not-strings", "leq-not-pairs", "ortho-not-integers",
        "table-not-integers", "coefficients-unequal", "states-not-strings",
        "c-map-not-integers", "c-map-index-out-of-range", "ortho-index-out-of-range",
        "leq-index-out-of-range", "table-index-out-of-range", "table-wrong-length",
        "c-map-bool", "ortho-bool", "table-bool", "leq-bool", "leq-float", "ortho-float",
        "ortho-not-a-list", "table-float", "table-not-a-list", "c-map-float",
        "c-map-not-a-list"])
def test_malformed_file_is_a_parse_error(files, capsys, command, payload):
    path = files("bad.json", payload)
    assert main([*command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--tol", "nan", "verify", "--trials", "1"],
    ["--tol", "inf", "verify", "--trials", "1"],
    ["--tol", "-1", "hilbert", "ortho", str(DATA / "e1.json")],
    ["verify", "--trials", "-3"],
    ["verify", "--seed", "-1", "--trials", "1"],
    ["cascade", "verify", "--dim", "0"],
    ["cascade", "verify", "--trials", "-1"],
    ["compound", "probe", str(DATA / "uniform-operator.json"),
     str(DATA / "uniform-operator.json"), "--samples", "-1"],
], ids=["tol-nan", "tol-inf", "tol-negative", "trials-negative", "seed-negative",
        "dim-zero", "cascade-trials-negative", "samples-negative"])
def test_bad_numeric_flags_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be" in err and "Traceback" not in err


def test_missing_file_exits_two(capsys):
    assert main(["lattice", "check", "/definitely/not/here.json"]) == 2


def test_lattice_sasaki(files, capsys):
    path = files("mo2.json", jsonio.dump_lattice(mo(2)))
    assert main(["lattice", "sasaki", path, "a", "b"]) == 0
    assert capsys.readouterr().out.strip() == "a"


def test_lattice_sasaki_unknown_label_is_a_usage_error(capsys):
    assert main(["lattice", "sasaki", str(DATA / "mo2.json"), "a", "zz"]) == 2
    assert capsys.readouterr().err == "error: no element labelled 'zz'\n"


def test_lattice_sasaki_without_ortho_is_a_usage_error(capsys):
    assert main(["lattice", "sasaki", str(DATA / "chain2.json"), "0", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _json_out(capsys, argv) -> dict:
    assert main(["--json", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_files_with_ortho_read_as_their_plain_lattice(files, capsys):
    plain_mo2 = files("mo2-plain.json", jsonio.dump_lattice(mo(2).base))
    assert (_json_out(capsys, ["galois", "enumerate", str(DATA / "mo2.json"), str(DATA / "b2.json")])
            == _json_out(capsys, ["galois", "enumerate", plain_mo2, str(DATA / "b2.json")]))

    two = chain(2)
    table = [two.bottom, two.top, two.top, two.top]
    for command in (["galois", "dual"], ["galois", "classify"]):
        maps = [files(f"map-{i}.json", {"source": jsonio.dump_lattice(b2),
                                        "target": jsonio.dump_lattice(two), "table": table})
                for i, b2 in enumerate((boolean(2), boolean(2).base))]
        assert _json_out(capsys, [*command, maps[0]]) == _json_out(capsys, [*command, maps[1]])

    b2 = boolean(2)
    c_map = [b2.base.index("a"), b2.base.index("b"), b2.base.index("a")]
    spaces = [files(f"space-{i}.json", {"states": ["p", "q", "r"],
                                        "lattice": jsonio.dump_lattice(lat), "c_map": c_map})
              for i, lat in enumerate((b2, b2.base))]
    assert (_json_out(capsys, ["quantale", "check", spaces[0]])
            == _json_out(capsys, ["quantale", "check", spaces[1]]))


def test_galois_dual_and_classify(files, capsys):
    b2 = boolean(2).base
    two = chain(2)
    table = [two.bottom, two.top, two.top, two.top]
    payload = {
        "source": jsonio.dump_lattice(b2),
        "target": jsonio.dump_lattice(two),
        "table": table,
    }
    path = files("map.json", payload)
    assert main(["--json", "galois", "dual", path]) == 0
    dual = json.loads(capsys.readouterr().out)
    # weakest cause of the 2-chain bottom is the B2 bottom, of its top the B2 top
    assert dual["table"] == [b2.bottom, b2.top]

    assert main(["--json", "galois", "classify", path]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert "separation-like" in flags


def test_galois_enumerate(files, capsys):
    l1 = files("b2.json", jsonio.dump_lattice(boolean(2).base))
    l2 = files("c2.json", jsonio.dump_lattice(chain(2)))
    assert main(["--json", "galois", "enumerate", l1, l2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    # past Q_GUARD: the maps are counted, as no table of Q is read
    mo3 = str(DATA / "mo3.json")
    assert json.loads(Path(mo3).read_text()) == jsonio.dump_lattice(mo(3))
    assert _json_out(capsys, ["galois", "enumerate", mo3, mo3])["count"] == 13376


def test_shared_flags_work_after_the_subcommand(files, capsys):
    l1 = files("b2.json", jsonio.dump_lattice(boolean(2).base))
    l2 = files("c2.json", jsonio.dump_lattice(chain(2)))
    assert main(["galois", "enumerate", l1, l2, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4
    assert main(["galois", "enumerate", l1, l2, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["verify", "orthomodular", "--trials", "20", "--tol", "0"]) == 1


def test_hilbert_meet_of_one_file_is_a_usage_error(capsys):
    assert main(["hilbert", "meet", str(DATA / "e1.json")]) == 2
    assert "needs two subspace files" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, field", [
    (["galois", "dual"], {"source": _CHAIN2, "target": _CHAIN2, "table": 1}, "table"),
    (["quantale", "check"], {"states": ["p"], "lattice": _CHAIN2, "c_map": 1}, "c_map"),
    (["lattice", "check"], dict(_CHAIN2, ortho=1), "ortho"),
], ids=["table", "c-map", "ortho"])
def test_a_field_that_is_no_list_is_named(files, capsys, command, payload, field):
    assert main([*command, files("bad.json", payload)]) == 2
    err = capsys.readouterr().err
    assert f"'{field}' must be a list" in err


def test_hilbert_ops(files, capsys):
    e1 = files("e1.json", jsonio.dump_matrix(np.array([[1.0], [0.0]])))
    diag = files("diag.json", jsonio.dump_matrix(np.array([[1.0], [1.0]])))
    assert main(["--json", "hilbert", "sasaki", e1, diag]) == 0
    frame = jsonio.parse_matrix(json.loads(capsys.readouterr().out))
    assert frame.shape == (2, 1)
    assert abs(abs(frame[0, 0]) - 1.0) < 1e-12

    assert main(["--json", "hilbert", "ortho", e1]) == 0
    frame = jsonio.parse_matrix(json.loads(capsys.readouterr().out))
    assert abs(abs(frame[1, 0]) - 1.0) < 1e-12


def test_hilbert_meet_and_join_of_a_ray_near_e1_decide_one_rank(capsys):
    # a ray 1e-6 off e1 is independent of e1 for join and for meet alike
    e1, near = str(DATA / "e1.json"), str(DATA / "near-e1-ray.json")
    assert main(["--json", "hilbert", "meet", e1, near]) == 0
    assert json.loads(capsys.readouterr().out)["cols"] == 0
    assert main(["--json", "hilbert", "join", e1, near]) == 0
    assert json.loads(capsys.readouterr().out)["cols"] == 2


def test_compound_quadruple_and_tensor(files, capsys):
    op = jsonio.dump_operator(
        __import__("compoundness").CompoundOperator(np.eye(2) / np.sqrt(2))
    )
    path = files("op.json", op)
    assert main(["--json", "compound", "quadruple", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    rho1 = jsonio.parse_matrix(payload["rho1"])
    assert np.allclose(rho1, np.eye(2) / 2)

    assert main(["--json", "compound", "tensor", path]) == 0
    tv = jsonio.parse_tensor_vector(json.loads(capsys.readouterr().out))
    assert np.allclose(np.abs(tv.coefficients), [1 / np.sqrt(2)] * 2)


def test_compound_probe(files, capsys):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = files("f.json", jsonio.dump_matrix(matrix))
    assert main(["--json", "compound", "probe", f, f, "--samples", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] and payload["equal_on_samples"]


def test_compound_probe_of_a_tiny_multiple_exits_zero(files, capsys):
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = files("g.json", jsonio.dump_matrix(matrix))
    f = files("f.json", jsonio.dump_matrix(1e-13 * matrix))
    for pair in ((f, g), (g, f)):
        assert main(["--json", "compound", "probe", *pair, "--samples", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] and payload["equal_on_samples"]


def test_cascade_run_exit_code_honours_tol(monkeypatch, capsys):
    born = compoundness.cascade.born_probability
    monkeypatch.setattr(compoundness.cascade, "born_probability",
                        lambda *args: born(*args) + 1e-6)
    argv = ["--quiet", "cascade", "run", "--state", str(DATA / "anticorrelated-pair.json"),
            "--left", str(DATA / "e1.json"), "--right", str(DATA / "e1.json")]
    assert main(argv) == 1
    assert main([*argv, "--tol", "1e-3"]) == 0


def test_cascade_run_matches_born(files, capsys):
    tv = TensorVector(
        np.array([1 / np.sqrt(2), -1 / np.sqrt(2)]),
        np.eye(2, dtype=complex),
        np.eye(2, dtype=complex),
    )
    state = files("tv.json", jsonio.dump_tensor_vector(tv))
    e1 = files("e1.json", jsonio.dump_matrix(np.array([[1.0], [0.0]])))
    assert main(["--json", "cascade", "run", "--state", state,
                 "--left", e1, "--right", e1]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["joint_probability"] == pytest.approx(0.5, abs=1e-12)
    assert payload["born_probability"] == pytest.approx(0.5, abs=1e-12)


def test_cascade_run_with_a_tiny_outcome_vector_matches_born(capsys):
    assert main(["--json", "cascade", "run", "--state", str(DATA / "anticorrelated-pair.json"),
                 "--left", str(DATA / "tiny-e1.json"), "--right", str(DATA / "e1.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["born_probability"] == pytest.approx(0.5, abs=1e-12)
    assert payload["joint_probability"] == pytest.approx(0.5, abs=1e-12)


def test_quantale_check_and_epi(files, capsys):
    space = ProperStateSpace(("p", "q"), chain(2), (1, 1))
    path = files("space.json", jsonio.dump_space(space))
    assert main(["quantale", "check", path]) == 0
    assert "10 members" in capsys.readouterr().out
    assert main(["quantale", "epi", path]) == 0
    assert "10 maps validated" in capsys.readouterr().out


def test_quantale_check_exits_one_when_any_law_fails(files, capsys, monkeypatch):
    space = ProperStateSpace(("p", "q"), chain(2), (1, 1))
    path = files("space.json", jsonio.dump_space(space))
    broken = dataclasses.replace(check_quantale_laws(space), right_distributive=False)
    monkeypatch.setattr(cli, "check_quantale_laws", lambda *_: broken)
    assert main(["--json", "quantale", "check", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["right_distributive"] is False
    assert payload["epimorphism_maps"] == 10 and payload["bottom_is_empty"] is True


def test_a_size_refusal_is_a_usage_error(files, capsys):
    c9 = files("chain9.json", jsonio.dump_lattice(chain(9)))
    for argv, message in ((["galois", "enumerate", c9, str(DATA / "b2.json")],
                           "enumeration guard is 8 elements per side"),
                          (["quantale", "check", str(DATA / "four-state-space.json")],
                           "guarded to 350 members, got 22267")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def test_verify_runs_named_suites(capsys):
    assert main(["verify", "orthomodular", "sasaki",
                 "--trials", "10", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "orthomodular" in out and "sasaki" in out and "ok" in out


def test_verify_trials_zero_is_a_trivial_pass(capsys):
    assert main(["verify", "galois", "--trials", "0"]) == 0


def test_verify_exits_one_on_violations(capsys):
    # float noise cannot satisfy an exact tolerance, so failures appear
    assert main(["--tol", "0", "verify", "orthomodular", "--trials", "20"]) == 1
    assert "FAILURES" in capsys.readouterr().out


def test_cascade_verify_json_reports_both_campaigns(capsys):
    assert main(["--json", "cascade", "verify", "--dim", "2",
                 "--trials", "20", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["update_laws"]["failures"] == []
    assert payload["cascade_born"]["failures"] == []


def test_cascade_verify_text_reports_failures_of_both_campaigns(capsys):
    assert main(["--tol", "0", "cascade", "verify", "--dim", "2", "--trials", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for name in ("update-laws", "cascade-born"):
        status = [line for line in lines if line.startswith(name)]
        assert len(status) == 1 and "FAILURES" in status[0]
    assert any(line.startswith("  violated ") for line in lines)


def test_verify_unknown_suite_exits_two(capsys):
    assert main(["verify", "nope", "--trials", "1"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_json_output_is_machine_readable(capsys):
    assert main(["--json", "verify", "quadruple", "--trials", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["suite"] == "quadruple"
    assert payload[0]["failures"] == []


def test_usage_error_exits_two(capsys):
    assert main(["lattice"]) == 2
    assert main([]) == 2


def test_convert_round_trip(files, tmp_path, capsys):
    data = jsonio.dump_matrix(np.eye(2))
    src = files("m.json", data)
    out = str(tmp_path / "out.json")
    assert main(["convert", src, out, "--from", "matrix-json",
                 "--to", "matrix-json"]) == 0
    again = json.loads(open(out, encoding="utf-8").read())
    assert again["re"] == data["re"]


def test_convert_prints_its_result_whatever_the_output_flags(capsys):
    # without an output file the conversion is the result: --quiet and
    # --json leave it as it is
    argv = [*_TV_TO_MATRIX, str(DATA / "anticorrelated-pair.json")]
    outputs = []
    for flags in ([], ["--quiet"], ["--json"]):
        assert main([*flags, *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert json.loads(outputs[0])["rows"] == 2
    assert outputs == [outputs[0]] * 3


def test_quiet_suppresses_text(files, capsys):
    path = files("c2.json", jsonio.dump_lattice(chain(2)))
    assert main(["--quiet", "lattice", "check", path]) == 0
    assert capsys.readouterr().out == ""


def _leaves(parser, path=()):
    """(path, parser) for every command parser below ``parser`` that has no subcommands."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for action in groups:
        for name, child in action.choices.items():
            yield from _leaves(child, (*path, name))


def _required_arguments(parser) -> list[str]:
    argv = []
    for action in parser._actions:
        value = next(iter(action.choices)) if action.choices else "x"
        if not action.option_strings and action.nargs is None:
            argv.append(value)
        elif action.required and action.option_strings:
            argv += [action.option_strings[0], value]
    return argv


def test_every_leaf_command_takes_the_shared_flags_after_its_name():
    leaves = list(_leaves(cli.build_parser()))
    assert len(leaves) == 15
    for path, leaf in leaves:
        argv = [*path, *_required_arguments(leaf), "--json", "--quiet", "--tol", "1e-3"]
        args = cli.build_parser().parse_args(argv)
        assert (args.json, args.quiet, args.tol) == (True, True, 1e-3), path
        assert callable(args.func), path


def _readme_commands() -> list[list[str]]:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [re.sub(r"\s+#.*$", "", line).split()[1:]
            for line in block.splitlines() if line.startswith("compoundness ")]


def test_readme_command_examples_exit_zero(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    commands = _readme_commands()
    assert len(commands) == 16
    for argv in commands:
        assert main(["--quiet", *argv]) == 0, argv
