"""Command-line surface: one subcommand per public operation, batch mode,
human and JSON output.

Exit codes: 0 success, 1 domain error, 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from fractions import Fraction

from .arith import INFINITY, DomainError, Ring, ORDERS
from .fptdriver import DENOMINATOR_POWER, MINIMAL_DENOMINATOR, FptOptions, fpt
from .groebner import Ideal
from .nu import NuOptions, nu
from .parsing import ParseError, parse_polynomial, parse_ring
from .special import snc_verdict_raw
from .testideal import (
    compare_fpt,
    f_signature_value,
    is_f_jumping_exponent,
    is_fpt,
    test_ideal,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _add_ring_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--char", type=int, help="prime characteristic p")
    sub.add_argument("--vars", help="comma-separated variable names, e.g. x,y,z")
    sub.add_argument("--ring", help="inline ring spec, e.g. ZZ/5[x,y,z]")
    sub.add_argument("--order", choices=sorted(ORDERS), default="grevlex", help="monomial order")


def _ring_from_args(args) -> Ring:
    if args.ring:
        return parse_ring(args.ring, args.order)
    if args.char is None or not args.vars:
        raise ParseError("need --char and --vars (or --ring ZZ/p[x,y,z])", 0)
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    return Ring(args.char, names, ORDERS[args.order])


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}", 0) from None


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_bounds(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("bounds must look like a/b,c/d", 0)
    return _parse_fraction(parts[0]), _parse_fraction(parts[1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fthresh",
        description="Exact F-pure thresholds, F-thresholds, test ideals and "
        "F-signature values over prime fields.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_nu = subs.add_parser("nu", help="the nu/mu invariant at Frobenius level e")
    _add_ring_arguments(p_nu)
    p_nu.add_argument("poly", nargs="?", help="polynomial f (or use --ideal)")
    p_nu.add_argument("--ideal", help="comma-separated generators of I")
    p_nu.add_argument("--ideal-j", help="comma-separated generators of J (default: the variables)")
    p_nu.add_argument("--power", type=int, default=1, help="replace the input by its k-th power")
    p_nu.add_argument("-e", "--depth", type=int, required=True, help="Frobenius level e")
    p_nu.add_argument(
        "--containment",
        choices=["standard", "root", "power", "standard-power", "frobenius-root", "frobenius-power"],
    )
    p_nu.add_argument("--search", choices=["binary", "linear"], default="binary")
    p_nu.add_argument("--return-list", action="store_true")
    _add_origin_flags(p_nu, default=True)
    p_nu.add_argument("--no-special", action="store_true")
    p_nu.add_argument("--verbose", action="store_true")
    p_nu.add_argument("--json", action="store_true")

    p_fpt = subs.add_parser("fpt", help="F-pure threshold (exact value or interval)")
    _add_ring_arguments(p_fpt)
    p_fpt.add_argument("poly")
    p_fpt.add_argument("-e", "--depth", type=int, default=1)
    p_fpt.add_argument("--attempts", type=_nonnegative_int, default=3)
    p_fpt.add_argument("--no-special", action="store_true")
    p_fpt.add_argument("--final-attempt", action="store_true")
    p_fpt.add_argument("--bounds", help="known bounds a/b,c/d")
    p_fpt.add_argument(
        "--guess-strategy",
        choices=[MINIMAL_DENOMINATOR, DENOMINATOR_POWER],
        default=MINIMAL_DENOMINATOR,
    )
    _add_origin_flags(p_fpt, default=True)
    p_fpt.add_argument("--verbose", action="store_true")
    p_fpt.add_argument("--json", action="store_true")
    p_fpt.add_argument("--numeric", action="store_true")

    for name, helptext in (
        ("compare-fpt", "compare t against the F-pure threshold (-1/0/1)"),
        ("is-fpt", "is t the F-pure threshold?"),
        ("is-fjumping", "is t an F-jumping exponent?"),
        ("test-ideal", "the test ideal tau(f^t)"),
    ):
        p = subs.add_parser(name, help=helptext)
        _add_ring_arguments(p)
        p.add_argument("poly")
        p.add_argument("-t", "--exponent", required=True, help="rational parameter t")
        _add_origin_flags(p, default=False)
        p.add_argument("--json", action="store_true")

    p_snc = subs.add_parser("snc", help="simple-normal-crossing test")
    _add_ring_arguments(p_snc)
    p_snc.add_argument("poly")
    _add_origin_flags(p_snc, default=True)
    p_snc.add_argument("--json", action="store_true")

    p_sig = subs.add_parser("fsignature", help="F-signature value s(f, a/p^e)")
    _add_ring_arguments(p_sig)
    p_sig.add_argument("poly")
    p_sig.add_argument("-e", "--depth", type=int, required=True)
    p_sig.add_argument("-a", "--power", type=int, required=True)
    p_sig.add_argument("--json", action="store_true")
    p_sig.add_argument("--numeric", action="store_true")

    p_batch = subs.add_parser("batch", help="run newline-delimited requests from a file")
    p_batch.add_argument("file")

    return parser


def _add_origin_flags(sub: argparse.ArgumentParser, default: bool):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--at-origin", dest="at_origin", action="store_true")
    group.add_argument("--global", dest="at_origin", action="store_false")
    sub.set_defaults(at_origin=default)


def _fmt_extended(v) -> str:
    return "infinity" if v is INFINITY else str(v)


def _run_nu(args) -> str:
    ring = _ring_from_args(args)
    if args.ideal:
        gens = [parse_polynomial(g, ring) for g in args.ideal.split(",")]
        target = Ideal(ring, gens)
        if args.power != 1:
            target = target.power(args.power)
    elif args.poly:
        target = parse_polynomial(args.poly, ring)
        if args.power != 1:
            target = target ** args.power
    else:
        raise ParseError("nu needs a polynomial or --ideal", 0)
    J = None
    if args.ideal_j:
        J = Ideal(ring, [parse_polynomial(g, ring) for g in args.ideal_j.split(",")])
    aliases = {"standard-power": "standard", "frobenius-root": "root", "frobenius-power": "power"}
    opts = NuOptions(
        containment=aliases.get(args.containment, args.containment),
        search=args.search,
        return_list=args.return_list,
        use_special_algorithms=not args.no_special,
        at_origin=args.at_origin,
        verbose=args.verbose,
    )
    result = nu(args.depth, target, J, opts)
    if args.json:
        if isinstance(result, list):
            return json.dumps({"kind": "list", "values": [_fmt_extended(v) for v in result]})
        if result is INFINITY:
            return json.dumps({"kind": "infinity"})
        return json.dumps({"kind": "integer", "value": str(result)})
    if isinstance(result, list):
        return "{" + ", ".join(_fmt_extended(v) for v in result) + "}"
    return _fmt_extended(result)


def _run_fpt(args) -> str:
    ring = _ring_from_args(args)
    f = parse_polynomial(args.poly, ring)
    opts = FptOptions(
        depth_of_search=args.depth,
        attempts=args.attempts,
        use_special_algorithms=not args.no_special,
        final_attempt=args.final_attempt,
        guess_strategy=args.guess_strategy,
        bounds=_parse_bounds(args.bounds) if args.bounds else None,
        at_origin=args.at_origin,
        verbose=args.verbose,
    )
    result = fpt(f, opts)
    if args.json:
        return result.to_json(numeric=args.numeric)
    if args.numeric:
        return result.numeric_str()
    return str(result)


def _run_threshold_query(args) -> str:
    ring = _ring_from_args(args)
    f = parse_polynomial(args.poly, ring)
    t = _parse_fraction(args.exponent)
    if args.command == "compare-fpt":
        value = compare_fpt(t, f, at_origin=args.at_origin)
        return json.dumps({"kind": "comparison", "value": value}) if args.json else str(value)
    if args.command == "is-fpt":
        value = is_fpt(t, f, at_origin=args.at_origin)
        return json.dumps({"kind": "boolean", "value": value}) if args.json else str(value).lower()
    if args.command == "is-fjumping":
        value = is_f_jumping_exponent(t, f, at_origin=args.at_origin)
        return json.dumps({"kind": "boolean", "value": value}) if args.json else str(value).lower()
    tau = test_ideal(t, f).reduced()
    gens = [str(g) for g in tau.generators] or ["0"]
    if args.json:
        return json.dumps({"kind": "ideal", "generators": gens})
    return "ideal(" + ", ".join(gens) + ")"


def _run_snc(args) -> str:
    ring = _ring_from_args(args)
    f = parse_polynomial(args.poly, ring)
    verdict, _ = snc_verdict_raw(f, at_origin=args.at_origin)
    return json.dumps({"kind": "boolean", "value": verdict}) if args.json else str(verdict).lower()


def _run_fsignature(args) -> str:
    ring = _ring_from_args(args)
    f = parse_polynomial(args.poly, ring)
    value = f_signature_value(args.depth, args.power, f)
    if args.json:
        out = {"kind": "exact", "numerator": str(value.numerator), "denominator": str(value.denominator)}
        if args.numeric:
            out["numeric"] = float(value)
        return json.dumps(out)
    if args.numeric:
        return f"{float(value):.6g}"
    return str(value)


_RUNNERS = {
    "nu": _run_nu,
    "fpt": _run_fpt,
    "compare-fpt": _run_threshold_query,
    "is-fpt": _run_threshold_query,
    "is-fjumping": _run_threshold_query,
    "test-ideal": _run_threshold_query,
    "snc": _run_snc,
    "fsignature": _run_fsignature,
}


def _batch_argv(entry) -> list[str]:
    if isinstance(entry, str):
        return shlex.split(entry)
    if isinstance(entry, list) and all(isinstance(a, str) for a in entry):
        return entry
    raise ValueError(f"batch entry {entry!r} is neither a string nor a list of strings")


def _run_batch(args) -> int:
    try:
        with open(args.file) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        if text.lstrip().startswith("["):
            entries = [_batch_argv(e) for e in json.loads(text)]
        else:
            entries = [shlex.split(line) for line in text.splitlines() if line.strip()]
    except ValueError as exc:  # malformed JSON, entries or shell quoting
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if any(argv[:1] == ["batch"] for argv in entries):
        # a batch file that names itself would recurse without end
        print(f"error: {args.file}: batch files cannot run other batch files", file=sys.stderr)
        return EXIT_PARSE
    for argv in entries:
        code = run(argv)
        if code != EXIT_OK:
            # per-entry failures already reported; keep going
            continue
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    if args.command == "batch":
        return _run_batch(args)
    try:
        print(_RUNNERS[args.command](args))
        return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main():  # pragma: no cover
    sys.exit(run())
