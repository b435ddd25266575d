"""Command-line front end.

Commands:
  qalg eval SUBJECT --r 2 [--a 1/2 --p 4 ...]    evaluate one quantity
  qalg analyze FILE --max-period 12              Taylor coefficients -> period report
  qalg recognize --expr agile-star --a 1 ...     algebraic recognition
  qalg verify --suite paper-core                 run an identity suite

SUBJECT and the --expr names (besides const) are the keys of
recognize.QUANTITIES, written with '-' for '_'.
Rational parameters are given as n/d strings (decimals are rejected for
the parameters the mathematics needs exact).  Global: --digits N (env
QALG_DIGITS), --json, --out PATH.  Exit codes: 0 ok/pass, 1 usage,
2 domain error, 3 verification failure, 4 not periodic.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import mpmath as mp

from . import harness
from .errors import DomainError, InsufficientPrecision, QalgError
from .precision import PrecisionContext
from .moebius import TaylorInput, detect_period, extract_X, represent_product, represent_theta
from .recognize import QUANTITIES, raise_to, recognize, recognize_expression

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY_FAIL = 3
EXIT_NOT_PERIODIC = 4

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")

# every other parameter of a quantity is an exact rational
_FLAG_TYPES = {"n": int, "via": str, "method": str}


def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational; write it as n or n/d")
    return Fraction(text)


def _display(value, digits: int) -> str:
    # show digits-10 significant digits so guard noise never reaches users
    shown = max(10, digits - 10)
    return mp.nstr(value, shown, strip_zeros=False)


def _write(text: str, args) -> None:
    """A command's output: to the --out file when given, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _given(args, entry) -> dict:
    """The command-line values of the parameters a quantity reads."""
    return {name: str(getattr(args, name)) for name in entry.params
            if getattr(args, name) is not None}


def _cmd_eval(args) -> int:
    ctx = PrecisionContext(args.digits)
    entry = QUANTITIES[args.subject.replace("-", "_")]
    params = entry.complete(_given(args, entry))
    text = _display(entry.evaluate(params, ctx), args.digits)
    if args.json:
        text = json.dumps({"subject": args.subject, "params": params,
                           "digits": args.digits, "value": text}, indent=2)
    _write(text, args)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    ctx = PrecisionContext(args.digits)
    with open(args.series_file) as fh:
        inp = TaylorInput.from_json(fh.read())
    X = extract_X(inp)
    max_period = args.max_period
    if len(X) < 3 * max_period:
        max_period = len(X) // 3
        if max_period < 1:
            print("input too short to detect any period", file=sys.stderr)
            return EXIT_NOT_PERIODIC
    pc = detect_period(X, max_period)
    payload: dict = {
        "X": [str(v) for v in X[: min(len(X), 24)]],
        "digits": args.digits,
    }
    if pc is None:
        support = [n + 1 for n, v in enumerate(X) if v != 0]
        if support and max(support) <= len(X) // 3:
            # finitely supported exponents: exp(-f) is the plain finite
            # product, no period and no algebraic normalisation claim
            payload.update({
                "degenerate": True, "period": 1, "catoptric": True, "A": "0",
                "product": [[f"(1-q^{n})", str(X[n - 1])] for n in support],
            })
            lines = ["degenerate: finitely many nonzero exponents; period 1, A = 0",
                     "product: " + " * ".join(f"(1-q^{n})^({X[n-1]})" for n in support)]
            code = EXIT_OK
        else:
            payload["period"] = None
            lines = ["not periodic within the scanned range"]
            code = EXIT_NOT_PERIODIC
    else:
        prod = represent_product(pc)
        theta = represent_theta(pc)
        payload.update({
            "period": pc.period,
            "catoptric": True,
            "A": str(pc.A),
            "values": [str(v) for v in pc.values],
            "product": [[f"[{spec.a},{spec.p}]", str(w)] for spec, w in prod],
            "theta": {
                "eta_exponent": str(theta.eta_exponent),
                "factors": [[f"theta({s.a},{s.b})", str(w)] for s, w in theta.factors],
            },
        })
        lines = [
            f"period T = {pc.period}, catoptric = True, A = {pc.A}",
            "values: " + ", ".join(str(v) for v in pc.values),
            "product: " + " * ".join(f"[{s.a},{s.p}]^({w})" for s, w in prod),
            f"theta form: eta({pc.period})^({theta.eta_exponent}) * "
            + " * ".join(f"theta({s.a},{s.b})^({w})" for s, w in theta.factors),
        ]
        code = EXIT_OK
    _write(json.dumps(payload, indent=2) if args.json else "\n".join(lines), args)
    return code


def _cmd_recognize(args) -> int:
    ctx = PrecisionContext(args.digits)
    if args.expr == "const":
        if args.value is None:
            raise QalgError("const recognition needs --value")
        try:
            with ctx.workdps():
                x = mp.mpf(args.value)
        except ValueError:
            raise DomainError(f"--value {args.value!r} is not a decimal number") from None
        rec = recognize(raise_to(x, args.power, ctx, "const"), args.degree,
                        args.height_digits, ctx, provenance="const")
    else:
        name = args.expr.replace("-", "_")
        # recognize_expression rejects an unknown name with a DomainError
        params = _given(args, QUANTITIES[name]) if name in QUANTITIES else {}
        if args.power != 1:
            params["power"] = str(args.power)
        rec = recognize_expression(name, params, args.degree,
                                   args.height_digits, ctx)
    doc = rec.to_json_dict()
    if args.json:
        text = json.dumps(doc, indent=2)
    else:
        lines = [f"status: {rec.status}"]
        if rec.poly:
            lines.append(f"poly: {rec.poly}")
            lines.append(f"residual: {doc['residual']}")
            lines.append(f"verified_residual: {doc['verified_residual']}")
        lines.append(f"digits: {rec.digits_used}")
        text = "\n".join(lines)
    _write(text, args)
    return EXIT_OK if rec.status == "recognized" else EXIT_VERIFY_FAIL


def _cmd_verify(args) -> int:
    digits = args.digits or harness.DEFAULT_DIGITS.get(args.suite, 120)
    reports = harness.run_suite(args.suite, digits, parallelism=args.parallelism)
    fmt = "json" if args.json else "text"
    _write(harness.emit_report(reports, fmt, suite=args.suite, digits=digits), args)
    failed = harness.summarize(reports)["fail"]
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qalg",
        description="High-precision q-product / theta / elliptic evaluation "
                    "with algebraic-number recognition.")
    default_digits = int(os.environ.get("QALG_DIGITS", "120"))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=int, default=default_digits,
                       help="working precision in decimal digits (env QALG_DIGITS)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write output to a file")

    names = [name.replace("_", "-") for name in QUANTITIES]
    readers: dict[str, list] = {}
    for entry in QUANTITIES.values():
        for param in entry.params:
            readers.setdefault(param, []).append(entry.name.replace("_", "-"))

    def quantity_flags(p):
        for param, users in readers.items():
            p.add_argument(f"--{param}", type=_FLAG_TYPES.get(param, _rational),
                           help="read by " + ", ".join(users))

    p_eval = sub.add_parser("eval", help="evaluate one quantity")
    p_eval.add_argument("subject", choices=names)
    quantity_flags(p_eval)
    common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_an = sub.add_parser("analyze", help="Taylor coefficients -> periodic report")
    p_an.add_argument("series_file", help="JSON file {\"coeffs\": [\"1/1\", ...]}")
    p_an.add_argument("--max-period", type=int, default=12)
    common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_rec = sub.add_parser("recognize", help="recognize a value as algebraic")
    p_rec.add_argument("--expr", required=True, metavar="NAME",
                       help="one of " + ", ".join(names + ["const"]))
    quantity_flags(p_rec)
    p_rec.add_argument("--power", type=int, default=1,
                       help="recognize the value raised to this integer power")
    p_rec.add_argument("--value", help="decimal string for --expr const")
    p_rec.add_argument("--degree", type=int, default=8)
    p_rec.add_argument("--height-digits", type=int, default=4)
    common(p_rec)
    p_rec.set_defaults(func=_cmd_recognize)

    p_ver = sub.add_parser("verify", help="run an identity suite")
    p_ver.add_argument("--suite", choices=list(harness.SUITES), default="paper-core")
    p_ver.add_argument("--digits", type=int, default=None)
    p_ver.add_argument("--parallelism", type=int,
                       default=max(1, os.cpu_count() or 1))
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--out", help="write the report to a file")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InsufficientPrecision as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except QalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
