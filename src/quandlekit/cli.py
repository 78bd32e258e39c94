"""Command-line front end.

Subcommands: validate, analyze, tensor, decompose, gelfand, scan.  A
quandle comes either from a table file (first line the order, then the
rows) or from --affine M T.  Exit codes: 0 on success, 1 when the input
is a well-formed table that fails an axiom or a requested computation
does not apply, 2 on malformed input or I/O trouble.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import analyze
from .cayley import (
    AffineSpec,
    AxiomViolation,
    CayleyQuandle,
    QuandleError,
    affine_quandle,
)
from .characters import BadParameters, decompose_prime_affine
from .gelfand import NotConnected, is_gelfand_pair, is_multiplicity_free
from .inner import inner_group
from .modular import units
from .perms import GroupTooLarge, stabilizer
from .tables import TableFormatError, bundled_order12, load_table
from .tensor import tau_quotient, tensor_square

SCAN_CAP = 47


def _add_input_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "path",
        nargs="?",
        help="table file: first line the order n, then n rows of n entries",
    )
    sub.add_argument(
        "--affine",
        nargs=2,
        type=int,
        metavar=("M", "T"),
        help="use the affine quandle on Z_M with multiplier T",
    )
    sub.add_argument(
        "--bundled",
        action="store_true",
        help="use the packaged order-12 table",
    )
    sub.add_argument(
        "--one-indexed",
        action="store_true",
        help="table entries run 1..n instead of 0..n-1",
    )
    sub.add_argument(
        "--convention",
        choices=("right", "left"),
        default="right",
        help="orientation of the stored table (left-action tables are transposed)",
    )


def _load(args) -> tuple[CayleyQuandle, AffineSpec | None, str]:
    chosen = sum(1 for flag in (args.path, args.affine, args.bundled and "x") if flag)
    if chosen != 1:
        raise TableFormatError("give exactly one of: a table file, --affine, --bundled")
    if args.affine:
        modulus, multiplier = args.affine
        spec = AffineSpec(modulus, multiplier)
        return affine_quandle(spec), spec, f"affine {modulus} {multiplier}"
    if args.bundled:
        return bundled_order12(), None, "bundled order-12"
    quandle = load_table(
        args.path, one_indexed=args.one_indexed, convention=args.convention
    )
    return quandle, None, args.path


def _yesno(value) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def _decomposition_text(multiplicities: dict[str, int]) -> str:
    return " + ".join(name if count == 1 else f"{count}*{name}"
                      for name, count in multiplicities.items())


def _write_json(target: str, payload: dict) -> None:
    """Write payload as sorted, indented JSON to a file, or stdout for '-'."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    quandle, _, source = _load(args)
    print(f"{source}: valid quandle of order {quandle.order}")
    return 0


def cmd_analyze(args) -> int:
    quandle, spec, source = _load(args)
    report = analyze(quandle, spec=spec, source=source)
    print(f"source:              {report.source}")
    print(f"order:               {report.order}")
    print(f"connected:           {_yesno(report.connected)}")
    print(f"latin:               {_yesno(report.latin)}")
    print(f"inner group order:   {report.inner_order}")
    print(f"stabilizer order:    {report.stabilizer_order}")
    print(f"rank:                {report.rank}")
    reps = " ".join(str(p) for p in report.tensor_representatives)
    print(f"tensor classes:      {report.tensor_class_count}  [{reps}]")
    print(f"tau quotient:        {report.tau_class_count}")
    print(f"multiplicity free:   {_yesno(report.multiplicity_free)}")
    if report.commutation_witness:
        print(f"  witness:           {report.commutation_witness}")
    print(f"gelfand pair:        {_yesno(report.gelfand_pair)}")
    if report.affine_status == "given":
        print(
            "affine:              given "
            f"({report.affine_modulus}, {report.affine_multiplier})"
        )
    elif report.affine_status == "match":
        print(
            "affine:              isomorphic to "
            f"({report.affine_modulus}, {report.affine_multiplier})"
        )
    else:
        print(f"affine:              {report.affine_status}")
    if report.decomposition:
        print(f"decomposition:       {_decomposition_text(report.decomposition)}")
    if not report.translation_cycles_uniform:
        cycles = ", ".join(str(c) for c in report.translation_cycle_type)
        print(
            f"note: right translations have mixed cycle lengths ({cycles}); "
            "the uniform-cycle-length property needs a prime modulus"
        )
    if args.json:
        _write_json(args.json, report.to_dict())
    return 0


def cmd_tensor(args) -> int:
    quandle, _, source = _load(args)
    square = tensor_square(quandle)
    print(f"{source}: {len(square)} tensor classes")
    for rep, size in zip(square.representatives, square.sizes):
        print(f"  class {rep}  size {size}")
    if args.tau:
        quotient = tau_quotient(square)
        print(f"tau quotient: {len(quotient)} classes")
        for rep, size, merged in zip(
            quotient.representatives, quotient.sizes, quotient.merged_from
        ):
            origin = "+".join(str(i) for i in merged)
            print(f"  class {rep}  size {size}  (tensor classes {origin})")
    return 0


def cmd_decompose(args) -> int:
    if not args.affine:
        raise TableFormatError("decompose needs --affine P T with prime P")
    modulus, multiplier = args.affine
    result = decompose_prime_affine(AffineSpec(modulus, multiplier))
    print(f"affine {modulus} {multiplier}: {_decomposition_text(result.nonzero())}")
    print(f"rank: {result.rank}")
    print(f"multiplicity free: {_yesno(result.is_multiplicity_free)}")
    return 0


def cmd_gelfand(args) -> int:
    quandle, _, source = _load(args)
    verdict = is_multiplicity_free(quandle)
    group = inner_group(quandle)
    stab = stabilizer(group, 0)
    pair = is_gelfand_pair(group, stab)
    print(f"{source}: inner group order {len(group)}, "
          f"stabilizer order {len(stab)}")
    print(f"multiplicity free (orbital test): {_yesno(verdict.value)}")
    if verdict.witness is not None:
        print(f"  witness: {verdict.witness.describe()}")
    print(f"gelfand pair (double-coset test): {_yesno(pair)}")
    agreement = "agree" if verdict.value == pair else "DISAGREE"
    print(f"the two tests {agreement}")
    return 0 if verdict.value == pair else 1


def cmd_scan(args) -> int:
    if args.max_order > SCAN_CAP:
        raise TableFormatError(f"--max-order is capped at {SCAN_CAP}")
    rows = []
    all_free = True
    for modulus in range(3, args.max_order + 1):
        for multiplier in units(modulus):
            spec = AffineSpec(modulus, multiplier)
            if not spec.is_connected_admissible:
                continue
            quandle = affine_quandle(spec)
            square = tensor_square(quandle)
            quotient = tau_quotient(square)
            verdict = is_multiplicity_free(quandle)
            all_free = all_free and verdict.value
            rows.append(
                {
                    "modulus": modulus,
                    "multiplier": multiplier,
                    "multiplier_order": spec.order_of_multiplier,
                    "tensor_classes": len(square),
                    "tau_classes": len(quotient),
                    "multiplicity_free": verdict.value,
                }
            )
    print("modulus  multiplier  mult-order  tensor  tau  mf")
    for row in rows:
        print(
            f"{row['modulus']:7d}  {row['multiplier']:10d}  "
            f"{row['multiplier_order']:10d}  {row['tensor_classes']:6d}  "
            f"{row['tau_classes']:3d}  {_yesno(row['multiplicity_free'])}"
        )
    print(f"affine rows: {len(rows)}, all multiplicity-free: {_yesno(all_free)}")
    extra = None
    if args.include_bundled and args.max_order >= 12:
        quandle = bundled_order12()
        square = tensor_square(quandle)
        verdict = is_multiplicity_free(quandle)
        extra = {
            "source": "bundled order-12",
            "tensor_classes": len(square),
            "multiplicity_free": verdict.value,
        }
        print(
            f"bundled order-12: tensor {len(square)}, "
            f"multiplicity free: {_yesno(verdict.value)}"
        )
    if args.json:
        payload = {
            "schema": 1,
            "max_order": args.max_order,
            "affine_rows": rows,
            "all_affine_multiplicity_free": all_free,
        }
        if extra is not None:
            payload["bundled"] = extra
        _write_json(args.json, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandlekit",
        description="Exact computations on finite quandles: inner groups, "
        "tensor squares, quandle-ring decompositions, Gelfand pairs.",
    )
    subparsers = parser.add_subparsers(dest="command")

    sub = subparsers.add_parser("validate", help="check the three quandle axioms")
    _add_input_arguments(sub)
    sub.set_defaults(handler=cmd_validate)

    sub = subparsers.add_parser("analyze", help="full report on one quandle")
    _add_input_arguments(sub)
    sub.add_argument("--json", metavar="PATH", help="also write a JSON report ('-' for stdout)")
    sub.set_defaults(handler=cmd_analyze)

    sub = subparsers.add_parser("tensor", help="tensor-square classes")
    _add_input_arguments(sub)
    sub.add_argument("--tau", action="store_true", help="also print the swap quotient")
    sub.set_defaults(handler=cmd_tensor)

    sub = subparsers.add_parser(
        "decompose", help="irreducible multiplicities for a prime affine quandle"
    )
    sub.add_argument("--affine", nargs=2, type=int, metavar=("P", "T"), required=False)
    sub.set_defaults(handler=cmd_decompose)

    sub = subparsers.add_parser(
        "gelfand", help="run both multiplicity-freeness tests and compare"
    )
    _add_input_arguments(sub)
    sub.set_defaults(handler=cmd_gelfand)

    sub = subparsers.add_parser(
        "scan", help="census of connected affine quandles over Z_m up to an order bound"
    )
    sub.add_argument("--max-order", type=int, default=SCAN_CAP)
    sub.add_argument(
        "--include-bundled",
        action="store_true",
        help="append the packaged order-12 table to the census",
    )
    sub.add_argument("--json", metavar="PATH", help="also write rows as JSON")
    sub.set_defaults(handler=cmd_scan)

    return parser


def _unrecognized(argv: list[str], extras: list[str], path: str | None) -> list[str]:
    """The unknown arguments as given.  argparse hands the word after an
    unknown flag to the optional table path when no path came before it,
    as the 1e-6 of --tol 1e-6; that word is named after its flag."""
    for flag, word in zip(argv, argv[1:]):
        if word == path and flag.startswith("-") and flag in extras:
            at = extras.index(flag) + 1
            if extras[at:at + 1] != [path]:
                return extras[:at] + [path] + extras[at:]
    return extras


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = parser.parse_known_args(argv)
    if extras:
        named = _unrecognized(argv, extras, getattr(args, "path", None))
        parser.error(f"unrecognized arguments: {' '.join(named)}")
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except TableFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxiomViolation as exc:
        print(f"invalid quandle: {exc}", file=sys.stderr)
        return 1
    except (QuandleError, BadParameters, NotConnected, GroupTooLarge, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
