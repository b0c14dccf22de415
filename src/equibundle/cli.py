"""Command line front end.

Documents are JSON with an "action" section and optional
"line_isotropy" / "su2_isotropy" sections; see the README for the
schema.  Exit codes: 0 all checks pass, 1 a relation fails or a solve
or dimension has no consistent answer, 2 unreadable document or bad
parameters, 3 structurally valid input that fails validation (missing
section, wrong shape, inconsistent counts, a p that is not prime, a
rotation number divisible by p),
141 stdout closed before the output was written.

With --machine every subcommand prints one line of JSON, as
`json.dumps(obj, sort_keys=True)` writes it: sorted keys, the default
", " and ": " separators, and ASCII only, every other character
escaped.  `search` without --machine prints one such line per result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from collections.abc import Iterator
from gettext import gettext
from importlib import import_module
from json.encoder import encode_basestring_ascii as _json_str

from .action_model import (
    _SLOT_FIELDS,
    DocumentError,
    GroupAction,
    action_from_dict,
    action_to_dict,
    connected_sum_points,
    connected_sum_spheres,
    line_isotropy_from_dict,
    line_isotropy_to_dict,
    su2_isotropy_from_dict,
    validate,
)
from .congruence import (
    CongruenceReport,
    _display_template,
    check_line_bundle,
    check_rotation_relations,
    check_su2,
    gsignature_check,
    search_realizable,
    solve_theorem_a,
)
from .exact_arith import _mod_p, is_prime

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_RELATION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PIPE = 141  # stdout closed early; the shell's status for SIGPIPE

# expand bounds, all checked before any expansion (exit 2).  Each unit u_|r|
# divides in (order + 1) * min(|r|, order + 1) products of integers, and the
# integers grow as (order + 1) times the bit lengths of the arguments.  The
# first bound kept every printed integer of a sweep under 3,700 decimal digits,
# inside the 4,300-digit str() limit; with it, the second keeps every request
# under 3 s.  Measured, whole process, median of 5, 2-vCPU VM, Python 3.11: the
# CI case su2-point (-7, 11) at order 1000 (10,010 bits, work 18,018) takes
# 0.15 s; point (3, 137438953481) at order 292 (11,427 bits, work 86,728) 1.5 s.
MAX_ORDER = 1000
MAX_EXPAND_BITS = 12_000  # (order + 1) * bit lengths, r once per unit u_r
MAX_EXPAND_WORK = 100_000  # (order + 1) * sum of min(|r|, order + 1) over units
# At p = 1009, whole process, median of 3 (2-vCPU VM, Python 3.11), 504 results
# each: 1 point + 1 sphere reads only the p - 1 point classes (1, x), 0.10 s and
# 19 MB; 2 spheres and no point walk every sphere choice, 2.2 s and 94 MB.
# That two-sphere walk is the search's bound, `congruence._MAX_SPHERE_WALK`.
MAX_SEARCH_P = 1009

_FREE_SLOT = re.compile(rf"^({'|'.join(_SLOT_FIELDS)})\[(\d+)\]$")


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- document plumbing -------------------------------------------------------


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise _Failure(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep a nesting
        raise _Failure(EXIT_PARSE, f"{path}: not a valid document: {exc}")
    if not isinstance(doc, dict):
        raise _Failure(EXIT_PARSE, f"{path}: document root must be a mapping")
    return doc


def _section(doc: dict, name: str, from_dict):
    if name not in doc:
        raise _Failure(EXIT_VALIDATION, f"document has no {name} section")
    return from_dict(doc[name])


def _validated_action(doc: dict) -> GroupAction:
    """The document's action, built (a prime p, unit rotations) and
    validated (the count rule); each failure is a ValueError, exit 3."""
    action = _section(doc, "action", action_from_dict)
    if action.p == 2:
        warning = "p = 2: dimension formulas only, congruence checks need odd p"
        print(f"warning: {warning}", file=sys.stderr)
    validate(action)
    return action


def _emit(args, machine_obj: dict, human_text: str) -> None:
    if args.machine:
        print(json.dumps(machine_obj, sort_keys=True))
    else:
        print(human_text)


def _emit_document(args, doc: dict) -> int:
    """Print a document that `solve` or `sum` produced, indented for reading."""
    if args.machine:
        print(json.dumps({"ok": True, "document": doc}, sort_keys=True))
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _json_value(v) -> str:
    """`v` as `json.dumps(v, sort_keys=True)` writes it, at no cost for a bool."""
    return "true" if v is True else "false" if v is False else json.dumps(v, sort_keys=True)


def _record_template(name: str, lhs, required, passed) -> tuple[str, str]:
    """A record's JSON text split after its name (see `CongruenceReport._pieces`)."""
    head = f'{{"lhs": {_json_str(str(lhs))}, "name": {_json_str(name)[:-1]}'
    return head, f'", "passed": {_json_value(passed)}, "required": {_json_str(str(required))}}}'


def _report_line(mode: str, ok, report: CongruenceReport) -> Iterator[str]:
    """The bytes of `json.dumps({"mode": mode, "ok": ok, "records": [...]},
    sort_keys=True)`, each record {"lhs": str(lhs), "name": name, "passed":
    passed, "required": str(required)}, in pieces of a few thousand
    records: one template per run of records that share their value
    objects (`CongruenceReport._pieces`), and no per-record dict.  The
    battery writes p + 3 records, `gsign` p - 1."""
    yield f'{{"mode": {_json_str(mode)}, "ok": {_json_value(ok)}, "records": ['
    yield from report._pieces(_record_template, ", ")
    yield "]}"


def _finish_report(args, report: CongruenceReport, mode: str) -> int:
    """Write the report in the one form asked for, JSON or text, piece by
    piece, so the whole output is never held."""
    ok = report.ok
    if args.machine:
        sys.stdout.writelines(_report_line(mode, ok, report))
        print()
    else:
        sys.stdout.writelines(report._pieces(_display_template, "\n"))
        failed = sum(not passed for passed in report._passed)
        verdict = "all relations hold" if ok else f"{failed} relation(s) failed"
        print("\n" + verdict)
    return EXIT_OK if ok else EXIT_RELATION


# -- subcommands --------------------------------------------------------------


def _cmd_check(args) -> int:
    doc = _load_document(args.file)
    action = _validated_action(doc)
    if args.mode == "rotation":
        report = check_rotation_relations(action)
    elif args.mode == "gsign":
        report = gsignature_check(action)
    elif args.mode == "line":
        report = check_line_bundle(action, _section(doc, "line_isotropy", line_isotropy_from_dict))
    else:
        report = check_su2(action, _section(doc, "su2_isotropy", su2_isotropy_from_dict))
    return _finish_report(args, report, args.mode)


def _cmd_solve(args) -> int:
    doc = _load_document(args.file)
    action = _validated_action(doc)
    iso = _section(doc, "line_isotropy", line_isotropy_from_dict)
    if args.free is not None:
        match = _FREE_SLOT.match(args.free)
        if not match:
            raise _Failure(
                EXIT_PARSE,
                f"--free must look like lambda[i], lambda_sphere[j] or m[j], got {args.free!r}",
            )
        kind, idx = match.group(1), int(match.group(2))
        try:
            iso = iso.with_slot(kind, idx, None)
        except IndexError:
            raise _Failure(EXIT_PARSE, f"slot {args.free} is out of range")
    completed = solve_theorem_a(action, iso)
    out = {"action": action_to_dict(action), "line_isotropy": line_isotropy_to_dict(completed)}
    return _emit_document(args, out)


def _cmd_dimension(args) -> int:
    from .moduli import NonIntegerDimension, _dimension_rows, dim_invariant_moduli

    doc = _load_document(args.file)
    action = _validated_action(doc)
    iso = _section(doc, "su2_isotropy", su2_isotropy_from_dict)
    try:
        report = dim_invariant_moduli(action, iso)
    except NonIntegerDimension as exc:
        lines = _dimension_rows(exc.terms)
        lines.append(f"  total: {exc.total} (not an integer)")
        _emit(
            args,
            {
                "ok": False,
                "error": "non-integer dimension",
                "total": str(exc.total),
                "terms": {name: str(value) for name, value in exc.terms},
            },
            "\n".join(lines),
        )
        return EXIT_RELATION
    _emit(
        args,
        {
            "ok": True,
            "dimension": report.dimension,
            "k": iso.c2,
            "terms": {name: str(value) for name, value in report.terms},
            "chi_quotient": str(report.chi_quot),
            "sign_quotient": str(report.sign_quot),
        },
        report.display() + f"\ndimension: {report.dimension}",
    )
    return EXIT_OK


# kind -> (its expansion in `series`, the parameters in argument order, the
# parameter r of each unit u_r it divides by)
_EXPAND = {
    "point": ("expand_point_term", ("a", "b", "lam"), ("a", "b")),
    "sphere": ("expand_sphere_term", ("c", "alpha", "lam"), ("c", "c")),
    "boundary": ("expand_boundary_term", ("c", "m", "lam"), ("c",)),
    "su2-point": ("expand_su2_point_term", ("a", "b", "ell"), ("a", "b")),
    "su2-sphere": ("expand_su2_sphere_term", ("c", "alpha", "m", "ell"), ("c", "c", "c")),
}


def _cmd_expand(args) -> int:
    expansion, params, units = _EXPAND[args.kind]
    values = {name: getattr(args, name) for name in params}
    for name, v in values.items():
        if v is None:
            raise _Failure(EXIT_PARSE, f"expand --kind {args.kind} needs --{name}")
    order = args.order
    # a rotation number counts once per unit it divides by
    sized = [values[r] for r in units] + [values[n] for n in params if n not in units]
    bits = (order + 1) * sum(abs(v).bit_length() for v in sized)
    if bits > MAX_EXPAND_BITS:
        raise _Failure(
            EXIT_PARSE,
            f"expand needs (order + 1) * (bit lengths of the arguments) <= {MAX_EXPAND_BITS}, "
            f"got {bits}",
        )
    work = (order + 1) * sum(min(abs(values[r]), order + 1) for r in units)
    if work > MAX_EXPAND_WORK:
        raise _Failure(
            EXIT_PARSE,
            f"expand needs (order + 1) * (sum of min(|r|, order + 1) over its units) "
            f"<= {MAX_EXPAND_WORK}, got {work}",
        )
    # not `from . import series`: that reads the package's lazy surface,
    # which loads every library module
    expand = getattr(import_module(".series", __package__), expansion)
    coeffs = expand(*values.values(), order).coeffs
    p = args.p
    mod_p = [] if p is None else [_mod_p(q.numerator, q.denominator, p) for q in coeffs]
    mod_p = ["n/a" if r is None else r for r in mod_p]  # None: p divides the denominator
    if args.machine:
        payload = {"kind": args.kind, "order": order, "coefficients": [str(q) for q in coeffs]}
        if mod_p:
            payload["modulus"] = p
            payload["mod_p"] = mod_p
        print(json.dumps(payload, sort_keys=True))
    elif mod_p:
        rows = enumerate(zip(coeffs, mod_p))
        print("\n".join(f"s^{j}: {q}   (mod {p}: {r})" for j, (q, r) in rows))
    else:
        print("\n".join(f"s^{j}: {q}" for j, q in enumerate(coeffs)))
    return EXIT_OK


def _cmd_sum(args) -> int:
    doc_a = _load_document(args.file_a)
    doc_b = _load_document(args.file_b)
    action_a = _validated_action(doc_a)
    action_b = _validated_action(doc_b)
    if (args.points is None) == (args.spheres is None):
        raise _Failure(EXIT_PARSE, "pass exactly one of --points I J or --spheres I J")
    try:
        if args.points is not None:
            i, j = args.points
            merged = connected_sum_points(action_a, i, action_b, j)
        else:
            i, j = args.spheres
            merged = connected_sum_spheres(action_a, i, action_b, j)
    except IndexError:
        raise _Failure(EXIT_PARSE, "fixed set index out of range")
    return _emit_document(args, {"action": action_to_dict(merged)})


def _cmd_search(args) -> int:
    alphas = []
    if args.alphas:
        try:
            alphas = [int(x) for x in args.alphas.split(",")]
        except ValueError:
            raise _Failure(EXIT_PARSE, f"--alphas must be comma-separated integers: {args.alphas!r}")
    if args.p > MAX_SEARCH_P:
        raise _Failure(EXIT_VALIDATION, f"--p must be an odd prime <= {MAX_SEARCH_P}, got {args.p}")
    gen = search_realizable(
        args.p, args.points, args.spheres, alphas, args.sign, args.euler, args.b2
    )
    if args.limit is not None:
        gen = itertools.islice(gen, args.limit)
    results = []
    for action in gen:
        payload = action_to_dict(action)
        if args.machine:
            results.append(payload)
        else:
            print(json.dumps(payload, sort_keys=True))
    if args.machine:
        print(json.dumps({"count": len(results), "results": results}, sort_keys=True))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer >= low and, if high is given, <= high,
    so bad values exit 2 at parse time."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _prime(text: str) -> int:
    """argparse type: a prime, so a composite modulus exits 2 at parse time.
    A value too large for `is_prime` to decide is an invalid value too."""
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"must be a prime, got {value}")
    return value


_prime.__name__ = "int"  # as for `_int_in`: "invalid int value", not a private name


def _add_check(p_check):
    p_check.add_argument("file", help="document path, or - for stdin")
    p_check.add_argument(
        "--mode",
        choices=["rotation", "line", "su2", "gsign"],
        default="rotation",
        help="which relation family to check",
    )


def _add_solve(p_solve):
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--free",
        help="slot to solve for: lambda[i], lambda_sphere[j] or m[j]; "
        "defaults to the single null slot in the document",
    )


def _add_dimension(p_dim):
    p_dim.add_argument("file")


def _add_expand(p_exp):
    p_exp.add_argument(
        "--kind",
        required=True,
        choices=sorted(_EXPAND),
    )
    for flag in ("a", "b", "c", "alpha"):
        p_exp.add_argument(f"--{flag}", type=int, default=None)
    for flag in ("m", "ell", "lam"):  # a twist or degree left out is 0
        p_exp.add_argument(f"--{flag}", type=int, default=0)
    p_exp.add_argument("--order", type=_int_in(0, MAX_ORDER), default=4)
    p_exp.add_argument("--p", type=_prime, default=None, help="also print mod-p reductions")


def _add_gsign(p_gsign):
    p_gsign.add_argument("file")
    p_gsign.set_defaults(mode="gsign")


def _add_sum(p_sum):
    p_sum.add_argument("file_a")
    p_sum.add_argument("file_b")
    p_sum.add_argument("--points", nargs=2, type=int, metavar=("I", "J"))
    p_sum.add_argument("--spheres", nargs=2, type=int, metavar=("I", "J"))


def _add_search(p_search):
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument(
        "--points", type=_int_in(0), required=True, help="number of isolated points"
    )
    p_search.add_argument(
        "--spheres", type=_int_in(0), default=0, help="number of fixed spheres"
    )
    p_search.add_argument(
        "--alphas", default="", help="comma-separated self-intersections, one per sphere"
    )
    p_search.add_argument("--sign", type=int, required=True)
    p_search.add_argument("--euler", type=int, required=True)
    p_search.add_argument("--b2", type=_int_in(0), required=True)
    p_search.add_argument("--limit", type=_int_in(0), default=None)


# each subcommand: its name, its help line, the function that adds its own
# arguments, and its handler
_SUBCOMMANDS = (
    ("check", "run a congruence battery on a document", _add_check, _cmd_check),
    ("solve", "complete an isotropy record with one unknown", _add_solve, _cmd_solve),
    ("dimension", "invariant instanton moduli dimension", _add_dimension, _cmd_dimension),
    ("expand", "print exact expansion coefficients of one term", _add_expand, _cmd_expand),
    ("gsign", "exact equivariant signatures of all powers", _add_gsign, _cmd_check),
    ("sum", "equivariant connected sum of two documents", _add_sum, _cmd_sum),
    ("search", "enumerate realizable rotation data", _add_search, _cmd_search),
)


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments when it first parses.

    A call parses one subcommand, so it pays for that one's arguments
    only; the top-level help and the choice of subcommand need only the
    names and help lines, and an unparsed subcommand holds no argument,
    not even `-h`.  argparse hands the subcommand its arguments through
    `parse_known_args`, which `parse_args` calls too.  The fill adds
    `-h` first, as argparse's `add_help` would, then the subcommand's
    own arguments, then the `--machine` that every subcommand takes,
    and sets its handler as a default."""

    def __init__(self, *args, add_arguments, handler, **kwargs):
        super().__init__(*args, add_help=False, **kwargs)
        self._fill = add_arguments, handler

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            (add_arguments, handler), self._fill = self._fill, None
            self.add_argument(
                "-h",
                "--help",
                action="help",
                default=argparse.SUPPRESS,
                help=gettext("show this help message and exit"),
            )
            add_arguments(self)
            self.add_argument("--machine", action="store_true", help="emit one JSON object")
            self.set_defaults(handler=handler)
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equibundle",
        description="Congruence checks, bundle solvers and equivariant moduli dimensions "
        "for cyclic actions on four-manifolds.",
    )
    # prog given: argparse would otherwise format a usage to find it
    sub = parser.add_subparsers(
        dest="command", required=True, prog=parser.prog, parser_class=_SubcommandParser
    )
    for name, help_line, add_arguments, handler in _SUBCOMMANDS:
        sub.add_parser(name, help=help_line, add_arguments=add_arguments, handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.handler(args)
    except _Failure as exc:
        _fail(args, exc.code, str(exc))
        return exc.code
    except DocumentError as exc:
        _fail(args, EXIT_PARSE, str(exc))
        return EXIT_PARSE
    except ArithmeticError as exc:
        # NotSolvable, NonIntegerDimension, NotRational
        _fail(args, EXIT_RELATION, str(exc))
        return EXIT_RELATION
    except ValueError as exc:
        # shape mismatches, under/overdetermined solves, inconsistent
        # counts, a p that is not prime, a zero rotation: structurally
        # parseable but invalid
        _fail(args, EXIT_VALIDATION, str(exc))
        return EXIT_VALIDATION


def _fail(args, code: int, message: str) -> None:
    if args.machine:
        print(json.dumps({"ok": False, "error": message}, sort_keys=True))
    print(f"error: {message}", file=sys.stderr)


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does): stop quietly,
        # with stdout on devnull so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)
