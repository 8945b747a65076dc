"""Command-line front end.

Subcommands: ``list`` (catalog), ``compute`` (H_1 of a builtin case or a
JSON case file, by either or both methods), ``verify`` (cross-check the
builtin catalog), ``export`` (serialize a builtin case).  ``compute()`` is
the one pipeline behind both ``compute`` and ``verify``.  Where the cocycle
method does not apply, as for composite k, ``compute --method both`` runs
the oracle alone and says on stderr why the cocycle method was skipped.
A valid case whose action is not free prints ``warning: action not free``
to stderr and is never fatal.  Exit codes: 0 success, 1 validation failure
or method mismatch, 2 usage or parse error.  All output is
byte-deterministic for a given invocation.

A case file is a single JSON object with keys ``group_orders`` (list of
ints, each >= 2), ``phi`` and ``psi`` (lists of integer vectors, one per
generator), and an optional ``label``.  Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .abelian import FinAbGroup
from .cocycle import cocycle_obstruction, h1_cocycle
from .families import CASE_ID_RANGE, CASE_IDS, FamilyCase, builtin_case, builtin_cases
from .intlattice import InvariantFactors
from .oracle import kernel_h1
from .presentation import GeneratingSystem, InvalidCaseError, freeness_check, require_valid

METHOD_NAMES = ("paper", "oracle", "both")  # "paper" = the cocycle method


class CaseFileError(ValueError):
    """Malformed case file; message carries position or field information."""


@dataclass(frozen=True)
class CaseFile:
    """Parsed case file, structurally checked but not yet validated."""

    group_orders: tuple[int, ...]
    phi: tuple[tuple[int, ...], ...]
    psi: tuple[tuple[int, ...], ...]
    label: str | None = None


def _int_list(value: object, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise CaseFileError(f"{where}: expected a list of integers")
    return tuple(value)


def _vector_list(value: object, where: str, width: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise CaseFileError(f"{where}: expected a list of integer vectors")
    out = []
    for i, vec in enumerate(value):
        row = _int_list(vec, f"{where}[{i}]")
        if len(row) != width:
            raise CaseFileError(
                f"{where}[{i}]: expected {width} entries, got {len(row)}"
            )
        out.append(row)
    return tuple(out)


def parse_case_file(text: str) -> CaseFile:
    """Parse and shape-check a case file document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFileError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise CaseFileError("arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer literal over sys.get_int_max_str_digits()
        raise CaseFileError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise CaseFileError("top level: expected a JSON object")
    known = {"group_orders", "phi", "psi", "label"}
    for key in doc:
        if key not in known:
            raise CaseFileError(f"unknown key {key!r}")
    for key in ("group_orders", "phi", "psi"):
        if key not in doc:
            raise CaseFileError(f"missing key {key!r}")
    orders = _int_list(doc["group_orders"], "group_orders")
    for i, order in enumerate(orders):
        if order < 2:
            raise CaseFileError(f"group_orders[{i}]: cyclic orders must be >= 2, got {order}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise CaseFileError("label: expected a string")
    return CaseFile(
        group_orders=orders,
        phi=_vector_list(doc["phi"], "phi", len(orders)),
        psi=_vector_list(doc["psi"], "psi", len(orders)),
        label=label,
    )


def case_from_file(cf: CaseFile) -> FamilyCase:
    """Build a runnable case from a parsed file; semantic problems raise."""
    if not cf.phi or not cf.psi:
        raise InvalidCaseError(("empty generating system",))
    group = FinAbGroup(cf.group_orders)
    phi_images = tuple(group.element(c) for c in cf.phi)
    psi_images = tuple(group.element(c) for c in cf.psi)
    k = phi_images[0].order()
    if k < 2:
        raise InvalidCaseError(
            ("image 1 of phi has order 1; cannot infer the branch order",)
        )
    return FamilyCase(
        id=None,
        label=cf.label or "unnamed case",
        group=group,
        k=k,
        phi=GeneratingSystem(group, phi_images, k),
        psi=GeneratingSystem(group, psi_images, k),
    )


def case_to_file(case: FamilyCase) -> CaseFile:
    return CaseFile(
        group_orders=case.group.orders,
        phi=tuple(img.coeffs for img in case.phi.images),
        psi=tuple(img.coeffs for img in case.psi.images),
        label=case.label,
    )


def case_file_json(cf: CaseFile) -> str:
    doc = {
        "group_orders": list(cf.group_orders),
        "label": cf.label,
        "phi": [list(v) for v in cf.phi],
        "psi": [list(v) for v in cf.psi],
    }
    if cf.label is None:
        del doc["label"]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _case_id(argument: str) -> int | None:
    """The catalog id that ``argument`` spells, or None."""
    return next((i for i in CASE_IDS if str(i) == argument), None)


def _load_case(argument: str) -> FamilyCase:
    case_id = _case_id(argument)
    if case_id is not None:
        return builtin_case(case_id)
    path = Path(argument)
    if not path.is_file():
        raise CaseFileError(
            f"{argument}: not a case id ({CASE_ID_RANGE}) or a readable file"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CaseFileError(
            f"{argument}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return case_from_file(parse_case_file(text))


@dataclass(frozen=True)
class HomologyReport:
    """H_1 of one case by each method that ran.

    ``h1`` maps "paper" (the cocycle method) and/or "oracle" to its answer;
    ``skipped`` maps a requested method that did not run to the reason.
    """

    case: FamilyCase
    action_free: bool
    h1: dict[str, InvariantFactors]
    skipped: dict[str, str]

    @property
    def agree(self) -> bool:
        """False only when two methods ran and gave different answers."""
        return len(set(self.h1.values())) <= 1


def compute(case: FamilyCase, methods: Sequence[str] = ("paper", "oracle")) -> HomologyReport:
    """Validate a case and compute H_1 by the requested methods.

    This is the only code that runs both methods.  With both requested, a
    case outside the cocycle method's scope (``cocycle_obstruction``) runs
    the oracle alone and records why in ``skipped``; with "paper" alone it
    raises ValueError.  An invalid generating system raises
    InvalidCaseError; a non-free action is only recorded.
    """
    if not methods or not set(methods) <= {"paper", "oracle"}:
        raise ValueError(f"methods must be drawn from 'paper' and 'oracle', got {methods!r}")
    require_valid(case.phi)
    require_valid(case.psi)
    action_free = freeness_check(case.phi, case.psi)
    h1: dict[str, InvariantFactors] = {}
    skipped: dict[str, str] = {}
    if "paper" in methods:
        reason = cocycle_obstruction(case.phi, case.psi) if "oracle" in methods else None
        if reason is None:
            h1["paper"] = h1_cocycle(case.phi, case.psi)
        else:
            skipped["paper"] = reason
    if "oracle" in methods:
        h1["oracle"] = kernel_h1(case.phi, case.psi)
    return HomologyReport(case, action_free, h1, skipped)


def _warn(report: HomologyReport) -> None:
    """The stderr notes every command prints for a report."""
    if not report.action_free:
        print("warning: action not free", file=sys.stderr)
    if "paper" in report.skipped:
        print(f"note: cocycle method skipped: {report.skipped['paper']}", file=sys.stderr)


def _factor_dict(inv: InvariantFactors) -> dict:
    return {"free_rank": inv.free_rank, "torsion": list(inv.factors)}


def cmd_list(args: argparse.Namespace) -> int:
    for case in builtin_cases():
        print(
            f"case {case.id}: G = {case.group}  k={case.k}  "
            f"n={case.n}  m={case.m}  family dim {case.family_dim}"
        )
    return 0


def cmd_compute(args: argparse.Namespace) -> int:
    methods = ("paper", "oracle") if args.method == "both" else (args.method,)
    report = compute(_load_case(args.case), methods)
    _warn(report)
    if args.json:
        doc = {
            "case": report.case.label,
            "group_orders": list(report.case.group.orders),
            "methods": {name: _factor_dict(inv) for name, inv in report.h1.items()},
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        print(f"case: {report.case.label}")
        for name, inv in report.h1.items():
            print(f"{name + ':':<8}{inv}")
    if not report.agree:
        print("error: methods disagree", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ids = sorted(set(args.ids)) if args.ids and not args.all else CASE_IDS
    for i in ids:
        if i not in CASE_IDS:
            raise CaseFileError(f"unknown case id {i}; the catalog has cases {CASE_ID_RANGE}")
    failed = False
    for i in ids:
        report = compute(builtin_case(i))
        _warn(report)
        if report.agree:
            print(f"case {i}: MATCH  {report.h1['oracle']}")
        else:
            paper, oracle = report.h1["paper"], report.h1["oracle"]
            print(f"case {i}: MISMATCH  cocycle={paper}  oracle={oracle}")
            failed = True
    return 1 if failed else 0


def cmd_export(args: argparse.Namespace) -> int:
    case_id = _case_id(args.case)
    if case_id is None:
        raise CaseFileError(f"{args.case}: export takes a builtin case id ({CASE_ID_RANGE})")
    case = builtin_case(case_id)
    if args.format == "json":
        sys.stdout.write(case_file_json(case_to_file(case)))
    else:
        print(f"label: {case.label}")
        print(f"group orders: {' '.join(str(k) for k in case.group.orders)}")
        print("phi:")
        for i, img in enumerate(case.phi.images, start=1):
            print(f"  a{i} -> {img}")
        print("psi:")
        for j, img in enumerate(case.psi.images, start=1):
            print(f"  b{j} -> {img}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoprod",
        description="Integral H_1 of product-quotient surfaces with abelian group, "
        "by a closed-form cocycle computation and an independent rewriting oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the builtin catalog").set_defaults(func=cmd_list)

    compute = sub.add_parser("compute", help="compute H_1 for a case id or case file")
    compute.add_argument(
        "case", help=f"builtin case id ({CASE_ID_RANGE}) or path to a JSON case file"
    )
    compute.add_argument(
        "--method",
        choices=METHOD_NAMES,
        default="both",
        help="paper: exterior-square/2-cocycle computation; oracle: "
        "Reidemeister-Schreier rewriting; both: run and compare (default)",
    )
    compute.add_argument("--json", action="store_true", help="machine-readable output")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="cross-check both methods on builtin cases")
    verify.add_argument("--all", action="store_true", help="verify all builtin cases (default)")
    verify.add_argument("ids", nargs="*", type=int, help="specific case ids")
    verify.set_defaults(func=cmd_verify)

    export = sub.add_parser("export", help="serialize a builtin case")
    export.add_argument("case", help=f"builtin case id ({CASE_ID_RANGE})")
    export.add_argument("--format", choices=("json", "text"), default="json")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CaseFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidCaseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    console_main()
