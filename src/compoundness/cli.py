"""Command-line front door.

One binary with subcommands per subsystem plus ``verify`` for the seeded
law-check suites and ``convert`` for file format conversion. Exit codes:
0 when all requested laws hold, 1 when a violation or invalid structure
was found, 2 on usage or parse errors and on inputs past a size guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cascade as cascade_mod
from . import jsonio
from .errors import CompoundnessError, ParseError, TooLarge, UnknownElement, UnknownSuite
from .galois import classify_map, enumerate_Q, galois_dual
from .hilbert import DEFAULT_TOL, join_s, meet_s, ortho_s, sasaki_s, span
from .lattice import OrthoLattice
from .operators import ANTILINEAR, atomicity_probe, from_tensor, quadruple, schmidt_tensor
from .quantale import check_quantale_laws, enumerate_members, epimorphism_check
from .reporting import LawRecorder
from .suites import SUITE_NAMES, run_suite

USAGE_ERROR = 2
VIOLATION = 1
OK = 0


def _print(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif not args.quiet:
        print(text)


# -- lattice ------------------------------------------------------------------

def _cmd_lattice_check(args) -> int:
    lat = jsonio.parse_lattice(jsonio.load_json(args.file))
    base = lat.base if isinstance(lat, OrthoLattice) else lat
    payload = {
        "elements": len(base),
        "bottom": base.elements[base.bottom],
        "top": base.elements[base.top],
        "atoms": [base.elements[a] for a in base.atoms()],
        "ortho": isinstance(lat, OrthoLattice),
    }
    _print(args, payload,
           f"valid lattice: {len(base)} elements, bottom={payload['bottom']!r}, "
           f"top={payload['top']!r}, atoms={payload['atoms']}, "
           f"orthocomplemented={payload['ortho']}")
    return OK


def _cmd_lattice_sasaki(args) -> int:
    lat = jsonio.parse_lattice(jsonio.load_json(args.file))
    if not isinstance(lat, OrthoLattice):
        print("error: lattice file has no orthocomplement", file=sys.stderr)
        return USAGE_ERROR
    try:
        a, b = lat.base.index(args.a), lat.base.index(args.b)
    except UnknownElement as exc:  # a label typed on the command line
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    result = lat.sasaki(a, b)
    _print(args, {"result": lat.base.elements[result]},
           lat.base.elements[result])
    return OK


# -- galois -------------------------------------------------------------------

def _cmd_galois_dual(args) -> int:
    f = jsonio.parse_join_map(jsonio.load_json(args.file))
    dual = galois_dual(f)
    payload = {"table": list(dual.table)}
    _print(args, payload, f"dual table: {list(dual.table)}")
    return OK


def _cmd_galois_enumerate(args) -> int:
    q = enumerate_Q(jsonio.parse_base_lattice(jsonio.load_json(args.source)),
                    jsonio.parse_base_lattice(jsonio.load_json(args.target)))
    payload = {"count": len(q), "tables": [list(f.table) for f in q.maps]}
    _print(args, payload,
           f"{len(q)} join-preserving maps; top={list(q.top_map.table)}, "
           f"bottom={list(q.bottom_map.table)}")
    return OK


def _cmd_galois_classify(args) -> int:
    f = jsonio.parse_join_map(jsonio.load_json(args.file))
    flags = classify_map(f)
    _print(args, {"flags": list(flags)}, " ".join(flags))
    return OK


# -- hilbert ------------------------------------------------------------------

_HILBERT_OPS = {"meet": meet_s, "join": join_s, "ortho": ortho_s, "sasaki": sasaki_s}


def _cmd_hilbert(args) -> int:
    paths = [args.a] if args.op == "ortho" else [args.a, args.b]
    operands = []
    for path in paths:
        if path is None:
            print(f"error: hilbert {args.op} needs two subspace files",
                  file=sys.stderr)
            return USAGE_ERROR
        operands.append(span(jsonio.parse_matrix(jsonio.load_json(path)), args.tol))
    result = _HILBERT_OPS[args.op](*operands)
    payload = jsonio.dump_matrix(result.frame)
    _print(args, payload,
           f"dim {result.dim} subspace of C^{result.ambient_dim}; frame:\n"
           + json.dumps(payload))
    return OK


# -- compound -----------------------------------------------------------------

def _cmd_compound_quadruple(args) -> int:
    op = jsonio.parse_operator(jsonio.load_json(args.file))
    quad = quadruple(op)
    payload = {
        "rho1": jsonio.dump_matrix(quad.rho1.matrix),
        "rho2": jsonio.dump_matrix(quad.rho2.matrix),
        "adjoint": jsonio.dump_operator(quad.f21),
    }
    _print(args, payload,
           "rho1:\n" + json.dumps(payload["rho1"]) + "\nrho2:\n"
           + json.dumps(payload["rho2"]))
    return OK


def _cmd_compound_tensor(args) -> int:
    op = jsonio.parse_operator(jsonio.load_json(args.file))
    tv = schmidt_tensor(op)
    payload = jsonio.dump_tensor_vector(tv)
    _print(args, payload,
           f"{tv.terms} terms, coefficients "
           f"{[round(abs(c), 9) for c in tv.coefficients]}")
    return OK


def _cmd_compound_probe(args) -> int:
    f_op = jsonio.parse_operator(jsonio.load_json(args.f))
    g_op = jsonio.parse_operator(jsonio.load_json(args.g))
    rng = np.random.default_rng(args.seed)
    report = atomicity_probe(f_op, g_op, args.samples, rng=rng)
    payload = {
        "samples": report.samples,
        "ordered_on_samples": report.ordered_on_samples,
        "equal_on_samples": report.equal_on_samples,
        "consistent": report.consistent,
        "witness": None if report.witness is None
        else jsonio.dump_matrix(report.witness),
    }
    _print(args, payload,
           f"ordered={report.ordered_on_samples} equal={report.equal_on_samples} "
           f"consistent={report.consistent}")
    return OK if report.consistent else VIOLATION


# -- cascade ------------------------------------------------------------------

def _cmd_cascade_run(args) -> int:
    tv = jsonio.parse_tensor_vector(jsonio.load_json(args.state))
    psi = jsonio.parse_vector(jsonio.load_json(args.left))
    phi = jsonio.parse_vector(jsonio.load_json(args.right))
    op = from_tensor(tv, ANTILINEAR)
    trace = cascade_mod.run_cascade(op, span(psi), span(phi), order=args.order)
    born = cascade_mod.born_probability(tv, psi, phi)
    steps = [
        {
            "side": s.side,
            "kind": s.kind,
            "probability": s.probability,
            "carrier_dims": [s.carrier_pre.dim, s.carrier_post.dim],
        }
        for s in trace.steps
    ]
    payload = {
        "joint_probability": trace.joint_probability,
        "born_probability": born,
        "steps": steps,
    }
    lines = [
        f"step side={s['side']} {s['kind']:<8} p={s['probability']:.9f} "
        f"carrier {s['carrier_dims'][0]}->{s['carrier_dims'][1]}"
        for s in steps
    ]
    lines.append(f"joint probability: {trace.joint_probability:.12f}")
    lines.append(f"born probability:  {born:.12f}")
    _print(args, payload, "\n".join(lines))
    return OK if abs(trace.joint_probability - born) <= args.tol else VIOLATION


def _cmd_cascade_verify(args) -> int:
    laws = LawRecorder(args.tol)
    cascade_mod.check_prop2(args.dim, args.trials, np.random.default_rng(args.seed), laws)
    born = run_suite("cascade-born", args.seed, args.trials, tol=args.tol)
    if args.json:
        payload = {
            "update_laws": {
                "dim": args.dim,
                "trials": args.trials,
                "max_discrepancy": laws.max_discrepancy,
                "failures": [f.to_dict() for f in laws.failures],
            },
            "cascade_born": born.to_dict(),
        }
        print(json.dumps(payload, sort_keys=True))
    elif not args.quiet:
        _print_laws("update-laws", args.trials, laws.max_discrepancy, laws.failures)
        _print_laws("cascade-born", born.trials, born.max_discrepancy, born.failures)
    return OK if laws.ok and born.ok else VIOLATION


# -- quantale -----------------------------------------------------------------

def _cmd_quantale_check(args) -> int:
    space = jsonio.parse_space(jsonio.load_json(args.file))
    members = enumerate_members(space)
    report = check_quantale_laws(space, members)
    maps = report.epimorphism.maps
    payload = {"members": report.members, **report.laws, "epimorphism_maps": maps}
    laws = ", ".join(f"{law.replace('_', '-')}={holds}" for law, holds in report.laws.items())
    _print(args, payload,
           f"{report.members} members; {laws}, epimorphism-maps={maps}")
    return OK if report.ok else VIOLATION


def _cmd_quantale_epi(args) -> int:
    space = jsonio.parse_space(jsonio.load_json(args.file))
    members = enumerate_members(space)
    report = epimorphism_check(space, members)  # the first bad map raises
    _print(args, {"maps": report.maps}, f"{report.maps} maps validated")
    return OK


# -- verify / convert -----------------------------------------------------------

def _print_laws(name: str, trials: int, max_discrepancy: float, failures,
                elapsed: str = "") -> None:
    """A status line, then the first ten violations."""
    status = f"{len(failures)} FAILURES" if failures else "ok"
    print(f"{name:<14} trials={trials:<6} "
          f"max_discrepancy={max_discrepancy:.3e}{elapsed}  {status}")
    for failure in failures[:10]:
        print(f"  violated {failure.law}: {failure.inputs} "
              f"(discrepancy {failure.discrepancy:.3e})")


def _cmd_verify(args) -> int:
    names = args.suites or list(SUITE_NAMES)
    for name in names:
        if name not in SUITE_NAMES:
            raise UnknownSuite(
                f"unknown suite {name!r}; expected one of {SUITE_NAMES}"
            )
    reports = [run_suite(name, args.seed, args.trials, tol=args.tol) for name in names]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    elif not args.quiet:
        for r in reports:
            _print_laws(r.suite, r.trials, r.max_discrepancy, r.failures,
                        f" elapsed={r.elapsed_s:.2f}s")
    return OK if all(r.ok for r in reports) else VIOLATION


def _cmd_convert(args) -> int:
    data = jsonio.load_json(args.input)
    result = jsonio.convert(data, args.source_format, args.target_format)
    text = json.dumps(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)
    return OK


# -- parser -------------------------------------------------------------------

def _at_least(low: int, convert=int):
    """An argparse type: ``convert`` the text, then require a finite value
    of at least ``low``. No discrepancy exceeds nan, so a nan tolerance
    would pass every check."""
    def parse(text: str):
        value = convert(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    # Flags accepted before or after any subcommand. main() supplies their
    # defaults: a subcommand's own default would overwrite a flag given before it.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--json", action="store_true", help="machine output")
    shared.add_argument("--quiet", action="store_true", help="suppress text output")
    shared.add_argument("--tol", type=_at_least(0, float), help=f"tolerance (default {DEFAULT_TOL})")
    parser = argparse.ArgumentParser(
        prog="compoundness",
        description="Order-theoretic toolkit for two-part quantum systems.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name):
        return sub.add_parser(name).add_subparsers(dest="sub", required=True)

    def command(parent, name, handler, *positionals):
        p = parent.add_parser(name, parents=[shared])
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=handler)
        return p

    lattice = group("lattice")
    command(lattice, "check", _cmd_lattice_check, "file")
    command(lattice, "sasaki", _cmd_lattice_sasaki, "file", "a", "b")

    galois = group("galois")
    command(galois, "dual", _cmd_galois_dual, "file")
    command(galois, "enumerate", _cmd_galois_enumerate, "source", "target")
    command(galois, "classify", _cmd_galois_classify, "file")

    p = command(sub, "hilbert", _cmd_hilbert)
    p.add_argument("op", choices=list(_HILBERT_OPS))
    p.add_argument("a")
    p.add_argument("b", nargs="?")

    compound = group("compound")
    command(compound, "quadruple", _cmd_compound_quadruple, "file")
    command(compound, "tensor", _cmd_compound_tensor, "file")
    p = command(compound, "probe", _cmd_compound_probe, "f", "g")
    p.add_argument("--samples", type=_at_least(0), default=200)
    p.add_argument("--seed", type=_at_least(0), default=0)

    cascade = group("cascade")
    p = command(cascade, "run", _cmd_cascade_run)
    p.add_argument("--state", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--order", default=cascade_mod.LEFT_FIRST,
                   choices=[cascade_mod.LEFT_FIRST, cascade_mod.RIGHT_FIRST])
    p = command(cascade, "verify", _cmd_cascade_verify)
    p.add_argument("--dim", type=_at_least(1), default=3)
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--seed", type=_at_least(0), default=0)

    quantale = group("quantale")
    command(quantale, "check", _cmd_quantale_check, "file")
    command(quantale, "epi", _cmd_quantale_epi, "file")

    p = command(sub, "verify", _cmd_verify)
    p.add_argument("suites", nargs="*",
                   help=f"suites to run (default: all of {SUITE_NAMES})")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--trials", type=_at_least(0), default=100)

    p = command(sub, "convert", _cmd_convert, "input")
    p.add_argument("output", nargs="?")
    p.add_argument("--from", dest="source_format", required=True,
                   choices=list(jsonio.FORMATS))
    p.add_argument("--to", dest="target_format", required=True,
                   choices=list(jsonio.FORMATS))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        defaults = argparse.Namespace(json=False, quiet=False, tol=DEFAULT_TOL)
        args = parser.parse_args(argv, defaults)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (ParseError, UnknownSuite, TooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CompoundnessError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
