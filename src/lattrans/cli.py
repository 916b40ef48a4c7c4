"""Command-line front end.

Subcommands:

  solve     find the optimal transformations between two lattices
  verify    run a built-in reproduction (bain-d1, bain-d2, bain-dm2,
            terephthalic)
  region    scan the tetragonal stability certificates over an (A, C) grid
  count-sl  count bounded unimodular matrices

A lattice argument is one of

  * a builtin name: ``fcc``, ``bcc``, ``bcc:SCALE``, ``bct:A:C``
  * nine reals, row-major (columns are the lattice vectors)
  * six triclinic parameters ``a,b,c,alpha,beta,gamma`` with an optional
    trailing centring letter (P, C, I or F); angles in degrees

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

import numpy as np

from . import applications
from .errors import BudgetExceeded, LatTransError, VerificationFailed
from .lattice import CENTRINGS, TriclinicParams, primitive_from_centred, triclinic_to_primitive
from .matrix3 import as_matrix3, det
from .metrics import StrainMetric
from .optimizer import OptimalityReport, solve
from .unimodular import DEFAULT_GUARD, count_slk

_VERIFY_NAMES = ("bain-d1", "bain-d2", "bain-dm2", "terephthalic")


class InputError(ValueError):
    pass


def parse_lattice(text: str, fix_handedness: bool = False) -> np.ndarray:
    """Resolve a lattice argument to a primitive generator matrix.

    A lattice whose conversion to a basis overflows is refused as an
    input error; the search refuses a basis whose determinant overflows.
    """
    try:
        with np.errstate(over="raise"):
            return _resolve_lattice(text, fix_handedness)
    except (FloatingPointError, OverflowError):
        raise InputError(f"lattice {text!r} overflows double precision") from None


def _resolve_lattice(text: str, fix_handedness: bool) -> np.ndarray:
    token = text.strip()
    name, _, params = token.partition(":")
    lname = name.lower()
    if lname == "fcc" and not params:
        return applications.fcc_basis()
    if lname == "bcc":
        scale = 1.0 if not params else _to_float(params, "bcc scale")
        return applications.bcc_basis(scale)
    if lname == "bct":
        parts = params.split(":") if params else []
        if len(parts) != 2:
            raise InputError("bct takes two parameters: bct:A:C")
        return applications.bct_basis(
            _to_float(parts[0], "bct A"), _to_float(parts[1], "bct C")
        )

    fields = [f for f in re.split(r"[,\s]+", token) if f]
    centring = "P"
    if fields and fields[-1].upper() in CENTRINGS and len(fields) == 7:
        centring = fields.pop().upper()
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise InputError(f"could not parse lattice {text!r}: {exc}") from None

    if len(values) == 9:
        cell = as_matrix3(np.reshape(values, (3, 3)))
        if det(cell) < 0:
            if not fix_handedness:
                raise InputError(
                    "basis is left-handed; pass --fix-handedness to relabel "
                    "(swaps the first two lattice vectors)"
                )
            cell = cell[:, [1, 0, 2]]
    elif len(values) != 6:
        raise InputError(
            f"expected a builtin name, 9 basis entries or 6 triclinic "
            f"parameters, got {len(values)} numbers"
        )
    try:
        if len(values) == 6:
            cell = triclinic_to_primitive(TriclinicParams(*values))
        return primitive_from_centred(cell, centring)
    except (ValueError, LatTransError) as exc:
        raise InputError(str(exc)) from None


def _to_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"could not parse {what}: {text!r}") from None


# ---------------------------------------------------------------------------
# Structured output: deterministic JSON with 12-significant-digit numbers.


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialise {type(value)!r}")


def dumps_structured(document: dict) -> str:
    lines = ["{"]
    body = []
    for key, value in document.items():
        body.append(f"  {_fmt(str(key))}: {_fmt(value)}")
    lines.append(",\n".join(body))
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_document(report: OptimalityReport) -> dict:
    return {
        "schema": "lattrans.solve.v1",
        "metric_r": report.metric.r,
        "parent_basis": report.parent,
        "product_basis": report.product,
        "bound": {
            "k": report.bound.k,
            "side": report.bound.side,
            "m0": report.bound.m0,
            "raw_bound": report.bound.raw_bound,
        },
        "k_used": report.k_used,
        "certified": report.certified,
        "candidates": report.candidates,
        "m_min": report.m_min,
        "m_second": report.m_second,
        "gap": report.gap,
        "minimizer_count": len(report.minimizers),
        "minimizers": [
            {"mu": m.mu, "h": m.h} for m in report.minimizers
        ],
        "classes": [
            {
                "stretch": c.stretch,
                "principal_stretches": list(c.principal_stretches),
                "members": c.members,
            }
            for c in report.classes
        ],
    }


def _mat_lines(m, fmt="{:14.9f}") -> list:
    return ["  ".join(fmt.format(v) for v in row) for row in np.asarray(m)]


def report_human(report: OptimalityReport) -> str:
    out = []
    out.append(f"metric exponent r = {report.metric.r:g}")
    out.append(
        f"certified radius k = {report.bound.k} ({report.bound.side} side), "
        f"searched k = {report.k_used}"
        + ("" if report.certified else "  [NOT certified optimal]")
    )
    out.append(f"candidates evaluated: {report.candidates}")
    out.append(f"minimal distance m_min = {report.m_min:.9f}")
    if report.m_second is not None:
        out.append(
            f"first excited level = {report.m_second:.9f}  (gap = {report.gap:.9f})"
        )
    out.append(
        f"{len(report.minimizers)} optimal correspondence(s) in "
        f"{len(report.classes)} equivalence class(es)"
    )
    for ci, cls in enumerate(report.classes):
        nus = ", ".join(f"{v:.6f}" for v in cls.principal_stretches)
        out.append(f"class {ci}: {len(cls.members)} member(s), principal stretches [{nus}]")
        out.extend("    " + line for line in _mat_lines(cls.stretch))
    out.append("optimal integer correspondences (rows):")
    for m in report.minimizers:
        rows = "; ".join(" ".join(f"{v:d}" for v in row) for row in m.mu)
        out.append(f"    [{rows}]")
    return "\n".join(out) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_solve(args) -> int:
    parent = parse_lattice(args.parent, args.fix_handedness)
    product = parse_lattice(args.product, args.fix_handedness)
    metric = StrainMetric(args.r)
    report = solve(parent, product, metric, k=args.k, guard=args.guard)
    if args.format == "structured":
        _emit(dumps_structured(report_document(report)), args.out)
    else:
        _emit(report_human(report), args.out)
    return 0


def cmd_verify(args) -> int:
    name = args.name
    if name not in _VERIFY_NAMES:
        sys.stderr.write(f"unknown verification {name!r}; choose from {_VERIFY_NAMES}\n")
        return 2
    try:
        if name == "terephthalic":
            applications.terephthalic_case()
        else:
            r = {"bain-d1": 1.0, "bain-d2": 2.0, "bain-dm2": -2.0}[name]
            applications.verify_bain(StrainMetric(r))
    except VerificationFailed as exc:
        sys.stderr.write(f"{name}: FAILED\n")
        for failure in exc.failures:
            sys.stderr.write(f"  - {failure}\n")
        return 1
    sys.stdout.write(f"{name}: ok\n")
    return 0


def cmd_region(args) -> int:
    result = applications.bct_region_scan(
        a_range=(args.a_min, args.a_max),
        c_range=(args.c_min, args.c_max),
        step=args.step,
        iterations=args.iterations,
    )
    _emit(result.table(), args.out)
    return 0


def cmd_count_sl(args) -> int:
    start = time.perf_counter()
    stats = count_slk(args.k)
    elapsed = time.perf_counter() - start
    if args.format == "structured":
        _emit(
            dumps_structured(
                {
                    "schema": "lattrans.count.v1",
                    "k": stats.k,
                    "count": stats.count,
                    "candidates_examined": stats.candidates_examined,
                    "elapsed_seconds": elapsed,
                }
            ),
            args.out,
        )
    else:
        _emit(
            f"|SL^{stats.k}| = {stats.count}  "
            f"({stats.candidates_examined} candidates examined, {elapsed:.3f} s)\n",
            args.out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattrans",
        description="Optimal transformations between Bravais lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "structured"), default="human")
        p.add_argument("--out", default=None, help="write output to this path")

    p_solve = sub.add_parser("solve", help="solve for the optimal transformations")
    # a comma-joined basis may start with a minus sign ("-1,0,0,0,-1,0,0,0,1"),
    # and an exponent may be written with one ("--r -2e0", "--r -inf"):
    # argparse takes each for a value, as it does a negative number
    p_solve._negative_number_matcher = re.compile(
        p_solve._negative_number_matcher.pattern + r"|^-[^-].*,"
        + r"|^-(\d+\.?\d*|\.\d+)[eE][-+]?\d+$|^-(?i:inf|infinity|nan)$")
    p_solve.add_argument("parent", help="parent lattice")
    p_solve.add_argument("product", help="product lattice")
    p_solve.add_argument("--r", type=float, default=1.0,
                         help="strain metric exponent (default 1)")
    p_solve.add_argument("--k", type=int, default=None,
                         help="force the search radius (overrides the certified bound)")
    p_solve.add_argument("--fix-handedness", action="store_true",
                         help="relabel left-handed bases instead of refusing them")
    p_solve.add_argument("--guard", type=int, default=DEFAULT_GUARD, help=argparse.SUPPRESS)
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a built-in reproduction")
    p_verify.add_argument("name", help="one of: " + ", ".join(_VERIFY_NAMES))
    p_verify.set_defaults(func=cmd_verify)

    p_region = sub.add_parser("region", help="scan tetragonal stability certificates")
    p_region.add_argument("--a-min", type=float, default=0.7)
    p_region.add_argument("--a-max", type=float, default=1.8)
    p_region.add_argument("--c-min", type=float, default=0.7)
    p_region.add_argument("--c-max", type=float, default=1.8)
    p_region.add_argument("--step", type=float, default=0.005)
    p_region.add_argument("--iterations", type=int, default=0,
                          help="extra certificate-chaining passes")
    p_region.add_argument("--out", default=None)
    p_region.set_defaults(func=cmd_region)

    p_count = sub.add_parser("count-sl", help="count bounded unimodular matrices")
    p_count.add_argument("--k", type=int, required=True)
    common(p_count)
    p_count.set_defaults(func=cmd_count_sl)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except LatTransError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
