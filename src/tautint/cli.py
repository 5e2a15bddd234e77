"""Command-line front end.

Subcommands
-----------
psi        one psi-monomial intersection number in genus 0 or 1
pullback   integral against the forgetful pullback of a stratum class
lambda2    genus-2 Hodge-class integral by a chosen route
verify     multi-route agreement table over all partitions up to --n-max

Exit codes: 0 success, 1 domain error (with a message on stderr), 2 usage
error, 3 verification disagreement.  All rationals are printed exactly as
"p/q" (or "p" for integers).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import NamedTuple

from .arith import format_rational
from .identities import LAMBDA2_METHOD_NAMES, VERIFY_METHODS, VERIFY_ROUTES, verify
from .psi import ModuliIndex, psi_integral
from .strata import (
    BUILTIN_GRAPHS,
    GraphParseError,
    InvalidGraphError,
    builtin_graph,
    parse_graph,
    pullback_integral,
)

__all__ = ["OutputRecord", "build_parser", "main", "CSV_COLUMNS"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3

# Fixed verification table schema, one stable layout for regression diffing.
CSV_COLUMNS = ("n", "partition") + VERIFY_METHODS + ("agree",)

# verify checks every partition of n+1 for each n up to --n-max; their number,
# and the run time, about doubles every two steps of n.  Past this, require --hard.
SOFT_N_MAX = 12


class _OutputFields(NamedTuple):
    command: str
    inputs: dict
    results: list[dict]
    agree: bool | None


class OutputRecord(_OutputFields):
    """JSON-serializable result envelope; round-trips losslessly."""

    __slots__ = ()

    def __new__(cls, command: str, inputs: dict, results: list[dict] | None = None,
                agree: bool | None = None) -> "OutputRecord":
        # A new list per record: a shared default would collect every record's results.
        return super().__new__(cls, command, inputs, [] if results is None else results, agree)

    def to_dict(self) -> dict:
        out = {"command": self.command, "inputs": self.inputs, "results": self.results}
        if self.agree is not None:
            out["agree"] = self.agree
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "OutputRecord":
        return cls(
            command=data["command"],
            inputs=data["inputs"],
            results=data["results"],
            agree=data.get("agree"),
        )

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        return cls.from_dict(json.loads(text))


def _int_arg(text: str, error: str = "") -> int:
    # ASCII decimal digits, as the graph grammar reads them; int() alone also
    # takes '1_0' (as 10), '+1' and other scripts' digits such as '١'.
    try:
        if re.fullmatch(r"\s*-?[0-9]+\s*", text):
            return int(text)
    except ValueError:  # past int()'s digit limit
        pass
    raise argparse.ArgumentTypeError(error or f"invalid int value: {text!r}")


def _exponents_arg(text: str) -> tuple[int, ...]:
    error = f"expected comma-separated integers such as 2,1,0 — got {text!r}"
    values = tuple(_int_arg(part, error) for part in text.split(","))
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"exponents must be nonnegative, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    value = _int_arg(text, f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautint",
        description="Exact tautological intersection numbers on moduli of stable curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="psi-monomial intersection number in genus 0 or 1")
    p_psi.add_argument("--genus", type=_int_arg, choices=(0, 1), required=True)
    p_psi.add_argument("--k", type=_exponents_arg, required=True, metavar="K1,K2,...",
                       help="psi exponents, one per marked point")
    p_psi.set_defaults(handler=_cmd_psi)

    p_pull = sub.add_parser("pullback", help="integral against a pulled-back stratum class")
    p_pull.add_argument("--graph", required=True,
                        help=f"{' | '.join(sorted(BUILTIN_GRAPHS))} | file:<path>")
    p_pull.add_argument("--k", type=_exponents_arg, default=(), metavar="K1,K2,...",
                        help="psi exponents of the new marked points (default: none)")
    p_pull.set_defaults(handler=_cmd_pullback)

    p_l2 = sub.add_parser("lambda2", help="genus-2 Hodge-class integral")
    p_l2.add_argument("--k", type=_exponents_arg, required=True, metavar="K1,K2,...")
    p_l2.add_argument("--method", choices=("closed",) + LAMBDA2_METHOD_NAMES, default="closed")
    p_l2.set_defaults(handler=_cmd_lambda2)

    p_ver = sub.add_parser("verify", help="cross-check all computation routes")
    p_ver.add_argument("--n-max", type=_positive_int, default=10)
    p_ver.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_ver.add_argument("--hard", action="store_true",
                       help=f"allow --n-max beyond {SOFT_N_MAX}, though the run time about "
                            "doubles every two steps")
    p_ver.set_defaults(handler=_cmd_verify)

    for single in (p_psi, p_pull, p_l2):  # last, so -h lists it after the other options
        single.add_argument("--json", action="store_true", help="emit a JSON record")
    return parser


def _emit(args: argparse.Namespace, inputs: dict, method: str, result) -> int:
    # One value: its "p/q" text, or with --json the command's record.
    value = format_rational(result)
    record = OutputRecord(args.command, inputs, [{"method": method, "value": value}])
    print(record.to_json() if args.json else value)
    return EXIT_OK


def _cmd_psi(args: argparse.Namespace) -> int:
    value = psi_integral(ModuliIndex(args.genus, len(args.k)), args.k)
    return _emit(args, {"genus": args.genus, "k": list(args.k)}, "string-dilaton", value)


def _cmd_pullback(args: argparse.Namespace) -> int:
    if args.graph in BUILTIN_GRAPHS:
        graph = builtin_graph(args.graph)
    elif args.graph.startswith("file:"):
        with open(args.graph.removeprefix("file:"), encoding="utf-8") as handle:
            graph = parse_graph(handle.read())
    else:
        print(
            f"unknown graph {args.graph!r}; use one of "
            f"{', '.join(sorted(BUILTIN_GRAPHS))} or file:<path>",
            file=sys.stderr,
        )
        return EXIT_USAGE
    value = pullback_integral(graph, args.k)
    return _emit(args, {"graph": args.graph, "k": list(args.k)}, "strata-sum", value)


def _cmd_lambda2(args: argparse.Namespace) -> int:
    route = dict(VERIFY_ROUTES)[f"lambda2_{args.method}"]
    return _emit(args, {"k": list(args.k), "method": args.method}, args.method,
                 route(len(args.k), args.k))


def _verify_row(report) -> list[str]:
    # A row that agrees holds two values, each repeated by its group's routes,
    # so a value equal to the one before it reuses its text.
    row = [str(report.n), "+".join(str(part) for part in report.partition)]
    value = text = None
    for m in VERIFY_METHODS:
        if value is None or report.values[m] != value:
            value = report.values[m]
            text = format_rational(value)
        row.append(text)
    row.append("true" if report.agreed else "false")
    return row


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max > SOFT_N_MAX:
        if not args.hard:
            print(
                f"--n-max {args.n_max} checks every partition of n+1 up to n = "
                f"{args.n_max}, and the run time about doubles every two steps "
                f"past {SOFT_N_MAX}; pass --hard to confirm",
                file=sys.stderr,
            )
            return EXIT_USAGE
        print(
            f"warning: --n-max {args.n_max} checks every partition of n+1 up to "
            f"n = {args.n_max}; this may take a while",
            file=sys.stderr,
        )

    # One pass, each report formatted once.  CSV prints each row as soon as its
    # report is made, so a long run shows progress, and keeps no reports; text
    # (column widths) and JSON (one list) need every row first.
    if args.format == "csv":
        print(",".join(CSV_COLUMNS))
    rows = []
    agreed = True
    for report in verify(args.n_max):
        row = _verify_row(report)
        agreed &= report.agreed
        if args.format == "csv":
            print(",".join(row), flush=True)
        else:
            rows.append((report, row))

    if args.format == "json":
        records = [
            OutputRecord(
                command="verify",
                inputs={"n": report.n, "partition": list(report.partition)},
                results=[
                    {"method": m, "value": value}
                    for m, value in zip(VERIFY_METHODS, row[2:-1])
                ],
                agree=report.agreed,
            ).to_dict()
            for report, row in rows
        ]
        print(json.dumps(records, indent=2))
    elif args.format == "text":
        header = list(CSV_COLUMNS[:-1]) + ["status"]
        display = [row[:-1] + ["AGREE" if report.agreed else "DISAGREE"] for report, row in rows]
        widths = [max(len(header[i]), *(len(row[i]) for row in display)) for i in range(len(header))]
        for row in [header] + display:
            print("  ".join(row[i].ljust(widths[i]) for i in range(len(header))).rstrip())
        disagreements = sum(not report.agreed for report, _ in rows)
        if disagreements:
            print(f"{len(rows)} partitions checked, {disagreements} DISAGREE")
        else:
            print(f"{len(rows)} partitions checked, all routes agree")

    return EXIT_OK if agreed else EXIT_DISAGREE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        return args.handler(args)
    except InvalidGraphError as exc:
        print(f"invalid graph:\n{exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (GraphParseError, OSError, UnicodeDecodeError) as exc:
        print(f"cannot load graph: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
