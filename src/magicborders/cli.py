"""Command-line interface.

Exit codes: 0 success/valid, 1 invalid input, failed verification or
too little memory, 2 corners the row-parity lemma rules out, at any
order, 3 search budget exhausted.  Everything is deterministic; there is
no seeded mode.

Each command imports the modules it runs when it runs, so a process
loads only what its command needs beyond the parser, the documents and
the verifiers.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from . import __version__
from .core import BudgetExhausted, InfeasibleCornersError
from .documents import (
    FORMATS,
    GRID,
    JSON,
    DocumentError,
    GridDocument,
    parse_document,
    serialize_grid,
    serialize_plan,
)
from .verify import (
    BorderFrame,
    BorderPlan,
    CheckReport,
    plan_from_frame,
    verify_border,
    verify_bordered,
    verify_frame,
    verify_square,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

# beyond these inner orders a listing, or a count, may run for very long
DESK_SCALE_ORDER = 6
COUNT_DESK_SCALE_ORDER = 9


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for infeasibility
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _corner_pair(text: str) -> tuple[int, int]:
    try:
        v_text, w_text = text.split(",")
        return int(v_text), int(w_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"corners must look like V,W (two integers), got {text!r}"
        ) from None


def _read_document(path: str | None) -> BorderPlan | BorderFrame | GridDocument:
    """Parse the document at ``path`` (stdin for None or "-").  A grid
    with holes is read as a frame by ``GridDocument.as_frame``."""
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    doc = parse_document(text)
    if isinstance(doc, GridDocument) and not doc.is_complete():
        return doc.as_frame()
    return doc


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _silence_stdout() -> None:
    """Point stdout at the null device once nobody reads it.

    What stdout still buffers then cannot fail the interpreter's last flush.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _print_report(report: CheckReport) -> int:
    """Print a verdict and return its exit code.

    The code stands when nobody reads stdout: a closed pipe loses the
    report, not the verdict.
    """
    try:
        if report.valid:
            print("valid")
        else:
            print(f"invalid: {len(report.violations)} violation(s)")
            for violation in report.violations:
                print(f"  {violation}")
        sys.stdout.flush()
    except BrokenPipeError:
        _silence_stdout()
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_build(args) -> int:
    if args.corners and not args.border_only:
        raise DocumentError("--corners only applies to --border-only builds")
    if args.border_only:
        n = args.order
        if args.corners:
            from .corners import construct_with_corners

            plan = construct_with_corners(n, *args.corners)
        else:
            from .construct import build_border

            plan = build_border(n)
        if args.format == JSON:
            _emit(serialize_plan(plan), args.output)
        else:
            from .assemble import render_frame

            _emit(serialize_grid(render_frame(plan).cells, args.format), args.output)
        return EXIT_OK
    from .assemble import build_square

    square = build_square(args.order)
    _emit(serialize_grid(square, args.format), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = _read_document(args.input)
    if isinstance(doc, GridDocument):
        # the bordered check covers every line of the full square as its
        # order-N subsquare, so it runs alone
        check = verify_bordered if args.bordered else verify_square
        report = check(doc.cells)
    elif args.bordered:
        raise DocumentError("--bordered applies to full squares only")
    else:
        report = verify_border(doc) if isinstance(doc, BorderPlan) else verify_frame(doc)
    return _print_report(report)


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise DocumentError(f"--limit must be >= 0, got {args.limit}")
    if args.limit is not None and args.count_only:
        raise DocumentError("--limit does not apply to --count-only, which counts every border")
    from .enumeration import (
        OmegaKey,
        SearchBudget,
        count_borders,
        count_omega,
        enumerate_omega,
        enumerate_order,
        format_counts,
    )

    n = args.order
    if args.count_only:
        what, desk_scale = "counting", COUNT_DESK_SCALE_ORDER
    else:
        what, desk_scale = "exhaustive search", DESK_SCALE_ORDER
    if n > desk_scale:
        print(
            f"warning: {what} beyond inner order {desk_scale} "
            "can take very long; consider --max-nodes or --max-seconds",
            file=sys.stderr,
        )
    budget = SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    if args.count_only:
        if args.corners:
            print(count_borders(OmegaKey(n, *args.corners), budget))
        else:
            print(format_counts(count_omega(n, budget)), end="")
        return EXIT_OK
    # one budget spans the whole listing; islice stops reading at the
    # limit, so no key past it is searched
    if args.corners:
        borders = enumerate_omega(OmegaKey(n, *args.corners), budget)
    else:
        borders = enumerate_order(n, budget)
    for border in islice(borders, args.limit):
        sys.stdout.write(serialize_plan(border.to_plan()))
    return EXIT_OK


def cmd_orbit(args) -> int:
    from .transform import orbit

    doc = _read_document(args.input)
    if isinstance(doc, BorderPlan):
        plan, report = doc, verify_border(doc)
    elif isinstance(doc, BorderFrame):
        # the whole frame, not only the plan read off its top row and left
        # column: the cells facing those must hold their complements too
        plan, report = plan_from_frame(doc), verify_frame(doc)
    else:
        raise DocumentError("orbit expects a border plan or frame, not a full square")
    if not report.valid:
        return _print_report(report)
    for image in orbit(plan):
        if not verify_border(image).valid:
            raise RuntimeError("internal error: a symmetry image failed verification")
        sys.stdout.write(serialize_plan(image))
    return EXIT_OK


def _audit_line(audit) -> str:
    line = f"  {audit.row_id} (v={audit.v}, w={audit.w}): {audit.status}"
    if audit.status != "valid":
        details = "; ".join(str(x) for x in audit.raw_report.violations)
        line += f" [{details}]"
    return line


def cmd_tables(args) -> int:
    if args.m and not args.check:
        raise DocumentError("--m only applies with --check")
    if not args.check:
        print("seed tables ship verified; run with --check to (re)validate them")
        return EXIT_OK
    from .corners import audit_order4, audit_order_m

    audits4 = audit_order4()
    # audit every --m first: a bad one exits 1 before anything is printed
    audits_m = [(m, audit_order_m(m)) for m in args.m]
    print(f"order-4 seed table: {len(audits4)} entries")
    for audit in audits4:
        print(_audit_line(audit))
    bad4 = [a for a in audits4 if a.status != "valid"]
    print(f"order-4 summary: {len(audits4) - len(bad4)} valid, {len(bad4)} invalid")
    for m, audits in audits_m:
        print(f"parameterized table at m={m}: {len(audits)} entries")
        tally: dict[str, int] = {}
        for audit in audits:
            print(_audit_line(audit))
            tally[audit.status] = tally.get(audit.status, 0) + 1
        summary = ", ".join(f"{count} {status}" for status, count in sorted(tally.items()))
        print(f"m={m} summary: {summary} (all entries serve a verified plan)")
    return EXIT_INVALID if bad4 else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="magicborder",
        description="Build, verify, enumerate and transform magic borders "
        "and bordered magic squares.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a bordered square or a single border")
    p_build.add_argument("--order", type=int, required=True,
                         help="square order, or inner order with --border-only")
    p_build.add_argument("--border-only", action="store_true",
                         help="emit one magic border (a frame) instead of a full square")
    p_build.add_argument("--corners", type=_corner_pair, default=None, metavar="V,W",
                         help="prescribe the upper corners (even inner orders)")
    p_build.add_argument("--format", choices=FORMATS, default=GRID)
    p_build.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="verify a square, frame or plan document")
    p_verify.add_argument("input", nargs="?", default=None,
                          help="input file (default stdin)")
    p_verify.add_argument("--bordered", action="store_true",
                          help="also require the concentric (bordered) property")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list or count all borders exhaustively")
    p_enum.add_argument("--order", type=int, required=True, help="inner order")
    p_enum.add_argument("--corners", type=_corner_pair, default=None, metavar="V,W")
    p_enum.add_argument("--count-only", action="store_true")
    p_enum.add_argument("--limit", type=int, default=None,
                        help="stop after this many borders")
    p_enum.add_argument("--max-nodes", type=int, default=None,
                        help="abort after this many search nodes (exit 3)")
    p_enum.add_argument("--max-seconds", type=float, default=None,
                        help="abort after this much search time (exit 3)")
    p_enum.set_defaults(func=cmd_enumerate)

    p_orbit = sub.add_parser("orbit", help="emit the eight symmetry images of a plan")
    p_orbit.add_argument("input", nargs="?", default=None,
                         help="plan or frame document (default stdin)")
    p_orbit.set_defaults(func=cmd_orbit)

    p_tables = sub.add_parser("tables", help="validate the shipped seed tables")
    p_tables.add_argument("--check", action="store_true",
                          help="re-validate every entry against the verifier")
    p_tables.add_argument("--m", type=int, action="append", default=[],
                          help="also classify the parameterized table at this order "
                          "(repeatable)")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_OK
    except InfeasibleCornersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExhausted as exc:
        print(f"error: search budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # a DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        detail = str(exc) or "the command needs more memory than the process can get"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
