"""Command-line interface.

Subcommands:
    validate FILE                     re-check a fiber document's hypotheses
    compute FILE --op OP [--divisor]  beta / vertical divisors / resistance /
                                      semipositivity on one fiber
    catalog list | emit NAME --params generate reference fibers as documents
    audit --suite NAME [--out FILE]   run a reproduction audit suite
    evaluate [FILE] --digits N        render a formal log-sum as a decimal

Exit codes: 0 = ran to completion (validation failures and audit INFO
rows included), 1 = input error, 2 = an asserted audit comparison failed.
All output is line-oriented, tab-delimited text; audits can additionally
mirror their report as JSON via --json.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .audit import SUITES, audit
from .catalog import GENERATORS, catalog_entry
from .divisors import gamma_u, solve_vertical
from .documents import parse_fiber, parse_logsum, serialize_fiber
from .errors import FiberBetaError, MalformedInput
from .fiber import HorizontalIncidence, validate
from .invariants import beta_closed, beta_direct, semipositivity_certificate
from .linalg import build_laplacian, pseudoinverse, resistance_rows
from .logsum import evaluate
from .rationals import BACKEND, format_rat, rat

COMPUTE_OPS = ("beta", "vdiv", "udiv", "resistance", "semipos")


def _read_document(path: str):
    if path == "-":
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc.strerror}") from None


def _pick_divisor(horizontals: dict, requested, needed_for: str) -> HorizontalIncidence:
    if requested is not None:
        if requested not in horizontals:
            raise MalformedInput(
                f"divisor {requested!r} not in document "
                f"(available: {sorted(horizontals) or 'none'})"
            )
        return horizontals[requested]
    if len(horizontals) == 1:
        return next(iter(horizontals.values()))
    raise MalformedInput(
        f"--op {needed_for} needs --divisor ID "
        f"(available: {sorted(horizontals) or 'none'})"
    )


def cmd_validate(args) -> int:
    fiber, _ = parse_fiber(_read_document(args.file))
    report = validate(fiber)
    print(f"fiber: {fiber.name}")
    print(f"components: {fiber.r}\tgenus: {fiber.genus}")
    print(f"reduced: {str(report.reduced).lower()}")
    print(f"minimal-heuristic: {str(report.minimal).lower()}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}\t{check.name}\t{check.witness}")
    print(f"summary: {'ok' if report.ok else 'inconsistent'}")
    return 0


def cmd_compute(args) -> int:
    fiber, horizontals = parse_fiber(_read_document(args.file))
    report = validate(fiber)
    if not report.ok:
        raise MalformedInput(
            f"fiber {fiber.name!r} fails validation; run the validate command"
        )
    P = pseudoinverse(build_laplacian(fiber))
    op = args.op
    if op == "beta":
        # reduced fibers: beta is divisor-independent, use the closed form
        # unless a specific divisor was requested
        if args.divisor is None and fiber.is_reduced:
            rep = beta_closed(fiber, P)
            print(f"beta\t{format_rat(rep.beta)}\tpath=closed_form")
            return 0
        D = _pick_divisor(horizontals, args.divisor, "beta")
        rep = beta_direct(fiber, P, D)
        print(f"beta\t{format_rat(rep.beta)}\tpath=direct\tdivisor={D.id}")
        print(f"V_D^2\t{format_rat(rep.v_squared)}")
        print(f"(2V_D+U_D)^2\t{format_rat(rep.shifted_square)}")
        print(f"(K.U_D)\t{format_rat(rep.k_dot_u)}")
        if fiber.is_reduced:
            closed = beta_closed(fiber, P)
            print(f"beta_closed\t{format_rat(closed.beta)}")
        return 0
    if op == "vdiv":
        D = _pick_divisor(horizontals, args.divisor, "vdiv")
        vd = solve_vertical(fiber, P, D)
        print(f"V_D coefficients\tdivisor={D.id}")
        for cid, c in zip(fiber.ids, vd.coefficients):
            print(f"{cid}\t{format_rat(c)}")
        return 0
    if op == "udiv":
        D = _pick_divisor(horizontals, args.divisor, "udiv")
        gv = gamma_u(fiber, P, D)
        print(f"U_D coefficients (gamma)\tdivisor={D.id}")
        for cid, c in zip(fiber.ids, gv.gamma):
            print(f"{cid}\t{format_rat(c)}")
        return 0
    if op == "resistance":
        print("a\tb\tresistance")
        ids = fiber.ids
        for i, row in enumerate(resistance_rows(P)):
            a = ids[i]
            print("\n".join(f"{a}\t{b}\t{format_rat(x)}" for b, x in zip(ids[i + 1:], row)))
        return 0
    if op == "semipos":
        D = _pick_divisor(horizontals, args.divisor, "semipos")
        cert = semipositivity_certificate(fiber, P, D)
        print(f"semipositivity\tverdict={str(cert.verdict).lower()}\tdivisor={D.id}")
        for i, cid in enumerate(fiber.ids):
            extra = ""
            if cert.divisor_free_values is not None:
                extra = (
                    f"\tdivisor_free={format_rat(cert.divisor_free_values[i])}"
                    f"\tresistance_margin={format_rat(cert.resistance_margins[i])}"
                )
            print(f"{cid}\t{format_rat(cert.values[i])}{extra}")
        return 0
    raise MalformedInput(f"unknown op {op!r}")


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in sorted(GENERATORS):
            print(f"{name}\t{GENERATORS[name]}")
        return 0
    # emit
    if not args.name:
        raise MalformedInput("catalog emit needs a generator name")
    params = [x for x in (args.params or "").split(",") if x] if args.params else []
    try:
        fiber = catalog_entry(args.name, params)
    except ValueError as exc:
        raise MalformedInput(f"bad --params {args.params!r}: {exc}") from exc
    horizontals = []
    if args.name == "fermat":
        horizontals = [
            HorizontalIncidence(id="S_x", degree=1, incidence={"x": rat(1)})
        ]
    text = serialize_fiber(fiber, horizontals)
    if args.out:
        _write(args.out, text + "\n")
    else:
        print(text)
    return 0


def cmd_audit(args) -> int:
    report = audit(args.suite)
    text = report.to_text()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.json:
        _write(args.json, report.to_json() + "\n")
    return 2 if report.failed else 0


def cmd_evaluate(args) -> int:
    print(evaluate(parse_logsum(_read_document(args.file)), args.digits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberbeta",
        description="Exact lower-bound invariants of special fibers of arithmetic surfaces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__} ({BACKEND})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="re-check a fiber document's hypotheses")
    p.add_argument("file", help="fiber document (JSON), or - for stdin")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compute", help="compute invariants of one fiber document")
    p.add_argument("file", help="fiber document (JSON), or - for stdin")
    p.add_argument("--op", choices=COMPUTE_OPS, default="beta")
    p.add_argument("--divisor", help="horizontal divisor id from the document")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("catalog", help="list or emit reference fibers")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", help="generator name (for emit)")
    p.add_argument("--params", help="comma-separated generator parameters")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("audit", help="run a reproduction audit suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--out", help="write the text report here instead of stdout")
    p.add_argument("--json", help="also write a machine-readable JSON mirror here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("evaluate", help="render a formal log-sum as a decimal")
    p.add_argument("file", nargs="?", default="-", help="JSON {prime: coefficient}")
    p.add_argument("--digits", type=int, required=True, help="decimal places (>= 1)")
    p.set_defaults(func=cmd_evaluate)
    return parser


#: Built once at import; each `main` call only parses with it.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except FiberBetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
