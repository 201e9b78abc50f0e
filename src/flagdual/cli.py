"""Command-line front end.

    flagdual example {figure8|hyperbolic|cr|double} [--param Z] [-o FILE]
    flagdual coords INPUT [-o FILE]
    flagdual dualize INPUT [-o FILE]
    flagdual conjugate INPUT [-o FILE]
    flagdual check INPUT [--tolerance EPS]
    flagdual beta INPUT
    flagdual volume INPUT
    flagdual defect INPUT
    flagdual solve INPUT [-o FILE] [--tolerance EPS]

Exit status: 0 success, 1 parse error or unreadable file, 2 domain
error, failed check (the offending tetrahedron/face/edge class is
named) or usage error (from argparse), 3 solver failure; each package
error carries its status as ``exit_code``.  --json switches stdout to
a stable machine-readable encoding; every verb that reads INPUT takes
--backend, and no verb takes an option it does not read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bundled, fileio
from .complexes import (beta_complex, check_edges, check_faces,
                        conjugate_complex, dualize, duality_defect,
                        volume_complex, worst_residual)
from .errors import FlagdualError, ParseError
from .prebloch import canonicalize_six, eval_D
from .scalars import digit_limit_error, parse_exact
from .solver import solve_consistency
from .tetra import volume_tetra
from .tolerances import CHECK_TOL


def _parse_param(text):
    """Shape parameter: exact 'a/b+c/d*i' first, then Python's complex()."""
    try:
        return parse_exact(text)
    except ParseError as exc:
        if exc.__cause__:  # an exact literal that cannot be read
            raise
        try:
            return complex(text)
        except ValueError:
            raise ParseError(f"cannot parse shape parameter {text!r}") from None


def _tolerance(text):
    """--tolerance: a finite positive float, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number: {text!r}")
    return value


def _emit_complex(dc, args, extra=None, keep_flags=False):
    """Write the complex to -o or to stdout, with the extra items.

    Without --json the extras are notes: on stdout beside the "wrote"
    line, on stderr when stdout carries the complex itself.
    """
    extra = extra or {}
    if args.output:
        fileio.write_complex(args.output, dc, keep_flags)
        out = {"written": args.output}
    else:
        out = {"complex": fileio.dump_complex(dc, keep_flags)}
    if args.json:
        print(json.dumps({**out, **extra}))
        return
    for k, v in extra.items():
        print(f"{k}: {v}", file=sys.stdout if args.output else sys.stderr)
    print(f"wrote {args.output}" if args.output
          else json.dumps(out["complex"], indent=1))


def _load(args):
    return fileio.read_complex(args.input, args.backend)


# name -> (the complex made from --param, keep_flags)
_EXAMPLES = {
    "figure8": (lambda param: bundled.figure_eight_complex(), False),
    "hyperbolic": (lambda param: bundled.hyperbolic_complex(
        _parse_param(param or "2")), False),
    "cr": (lambda param: bundled.cr_complex(), True),
    "double": (lambda param: bundled.twisted_double_complex(), False),
}


def _cmd_example(args):
    build, keep = _EXAMPLES[args.name]
    _emit_complex(build(args.param), args, keep_flags=keep)
    return 0


# verb -> rewrite of the loaded complex that the verb emits
_REWRITES = {
    "coords": lambda dc: dc,
    "dualize": dualize,
    "conjugate": conjugate_complex,
}


def _cmd_rewrite(args):
    _emit_complex(_REWRITES[args.verb](_load(args)), args)
    return 0


def _cmd_check(args):
    dc = _load(args)
    faces = check_faces(dc)
    edges = check_edges(dc)
    tol = args.tolerance
    bad = faces.failures(tol) + edges.failures(tol)
    if args.json:
        print(json.dumps({
            "faces": fileio.report_to_json(faces),
            "edges": fileio.report_to_json(edges),
            "tolerance": tol,
            "pass": not bad,
        }))
    else:
        print(f"face equations ({len(faces.items)} pairings):")
        for it in faces.items:
            print(f"  {it.label}   |prod-1| = {it.residual:.3e}")
        print(f"edge equations ({len(edges.items)} classes):")
        for it in edges.items:
            print(f"  {it.label}   max|prod-1| = {it.residual:.3e}")
        worst = worst_residual((faces.max_residual, edges.max_residual))
        print(f"max residual {worst:.3e}   tolerance {tol:.1e}   "
              f"{'FAIL' if bad else 'PASS'}")
    if not bad:
        return 0
    print(f"error: consistency violated at {bad[0].label}", file=sys.stderr)
    return 2


def _texts(*sums) -> list:
    """The text form of each formal sum, all made before any is printed;
    an exact generator past int's digit limit raises the Unsupported
    that --json raises for it."""
    try:
        return [str(s) for s in sums]
    except ValueError:  # the digit limit
        raise digit_limit_error() from None


def _cmd_beta(args):
    dc = _load(args)
    b = beta_complex(dc)
    d = eval_D(b)
    if args.json:
        print(json.dumps({"beta": fileio.sum_to_json(b), "D": d,
                          "volume": d / 4.0}))
    else:
        b_text, = _texts(b)
        print(f"beta(K,z) = {b_text}")
        print(f"D(beta)   = {d!r}")
        print(f"Vol = D/4 = {d / 4.0!r}")
    return 0


def _cmd_volume(args):
    dc = _load(args)
    vols = [volume_tetra(c) for c in dc.coords]
    total = volume_complex(dc)
    if args.json:
        print(json.dumps({"tetrahedra": vols, "volume": total}))
    else:
        for n, v in enumerate(vols):
            print(f"Vol(T{n}) = {v!r}")
        print(f"Vol(K,z) = {total!r}")
    return 0


def _cmd_defect(args):
    dc = _load(args)
    raw = duality_defect(dc)
    canon = canonicalize_six(raw)
    d = eval_D(raw)
    if args.json:
        print(json.dumps({
            "defect": fileio.sum_to_json(raw),
            "canonicalized": fileio.sum_to_json(canon),
            "D": d,
        }))
    else:
        raw_text, canon_text = _texts(raw, canon)
        print(f"duality defect            = {raw_text}")
        print(f"canonicalized             = {canon_text}")
        print(f"D(defect) = D(b) - D(b*)  = {d!r}")
    return 0


def _cmd_solve(args):
    dc = _load(args)
    result = solve_consistency(dc, tol=args.tolerance)
    extra = {"iterations": result.iterations,
             "residual": result.residual}
    _emit_complex(result.decorated, args, extra=extra)
    return 0


_COMMANDS = {
    "example": _cmd_example,
    **dict.fromkeys(_REWRITES, _cmd_rewrite),
    "check": _cmd_check,
    "beta": _cmd_beta,
    "volume": _cmd_volume,
    "defect": _cmd_defect,
    "solve": _cmd_solve,
}


def _common(sub, verb):
    """The shared options, each on the verbs that read it."""
    if verb != "example":
        sub.add_argument("input", help="complex JSON file")
        sub.add_argument("--backend", choices=("auto", "exact", "float"),
                         default="auto", help="scalar backend for loading "
                                              "(default: follow file)")
    if verb in ("check", "solve"):
        sub.add_argument("--tolerance", type=_tolerance, default=CHECK_TOL,
                         help="residual tolerance (default 1e-9)")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable stdout")
    if verb not in ("check", "beta", "volume", "defect"):
        sub.add_argument("-o", "--output", help="write resulting complex here")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="flagdual",
        description="Flag tetrahedra in CP^2: coordinates, duality, and "
                    "pre-Bloch volumes of decorated triangulations.")
    subs = ap.add_subparsers(dest="verb", required=True)
    ex = subs.add_parser("example", help="emit a bundled example complex")
    ex.add_argument("name", choices=tuple(_EXAMPLES))
    ex.add_argument("--param", help="shape parameter for 'hyperbolic' "
                                    "(exact 'a/b+c/d*i' or complex '1+2j')")
    _common(ex, "example")
    for verb, help_text in (
            ("coords", "measure coordinates (flags files become coords)"),
            ("dualize", "apply the duality involution to the decoration"),
            ("conjugate", "complex-conjugate the decoration"),
            ("check", "evaluate face and edge consistency equations"),
            ("beta", "the pre-Bloch invariant and its dilogarithm"),
            ("volume", "volumes of the tetrahedra and the complex"),
            ("defect", "duality defect, canonicalized, with D value"),
            ("solve", "Newton-solve the consistency equations")):
        _common(subs.add_parser(verb, help=help_text), verb)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except FlagdualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
