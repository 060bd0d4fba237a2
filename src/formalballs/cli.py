"""Batch command line front end: evaluation, checks, and law reports.

All output is JSON on stdout (deterministic for fixed flags and seed);
exit code 0 for values and passing checks, 1 for a failing check, 2 for
parse or contract errors, and 2 when stdout is closed before the document
is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .balls import (
    BallOpen,
    FormalBall,
    diameter,
    is_positive,
    meet_witness,
    way_inside,
)
from .carriers import finite_space_from_json, rational_line
from .completion import member_query, pair_point, point_of_carrier
from .function_locale import RATIONAL_PARTS, MMInstance, check_axiom
from .gelfand import (
    AlgebraElement,
    FiniteDiscreteSpace,
    BasicOpenXR,
    has_point,
    is_admissible,
    spectrum_of_cn,
    verify_spectrum,
)
from .lawsuite import run_law_suite, suite_json
from .maps import (
    ISOMETRIC,
    METRIC,
    UNIFORM,
    MapRep,
    apply_map,
    compose_maps,
    identity_map,
    line_map,
    lipschitz_line_map,
    pair_maps,
    proj_map,
)
from .numbers import decimal_str, parse_int, parse_rational, rational_str
from .reals import (
    abs_r,
    add_r,
    max_r,
    min_r,
    mul_r,
    neg_r,
    real_of_rational,
    sub_r,
)

LINE = rational_line()


class ParseFailure(ValueError):
    pass


# -- tiny recursive descent parsers ----------------------------------------

_TOKEN = re.compile(r"\s*([a-zA-Z][a-zA-Z0-9]*|-?\d+(?:/\d+)?|[(),])")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseFailure(f"bad token at: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Tokens:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseFailure("unexpected end of expression")
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ParseFailure(f"expected {t!r}, got {got!r}")

    def done(self):
        if self.i != len(self.toks):
            raise ParseFailure(f"trailing input: {self.toks[self.i:]}")


_RATIONAL = re.compile(r"-?\d+(?:/\d+)?$")


def _parse_real(ts: _Tokens):
    t = ts.next()
    if _RATIONAL.match(t):
        return real_of_rational(parse_rational(t))
    ops1 = {"neg": neg_r, "abs": abs_r}
    ops2 = {"add": add_r, "sub": sub_r, "max": max_r, "min": min_r}
    if t in ops1:
        ts.expect("(")
        x = _parse_real(ts)
        ts.expect(")")
        return ops1[t](x)
    if t in ops2:
        ts.expect("(")
        x = _parse_real(ts)
        ts.expect(",")
        y = _parse_real(ts)
        ts.expect(")")
        return ops2[t](x, y)
    if t == "mul":
        ts.expect("(")
        x = _parse_real(ts)
        ts.expect(",")
        y = _parse_real(ts)
        ts.expect(",")
        bound = ts.next()
        if not bound.isdigit():
            raise ParseFailure("mul bound must be a natural number")
        ts.expect(")")
        return mul_r(x, y, int(bound))
    raise ParseFailure(f"unknown real operator {t!r}")


def parse_real_expr(text: str):
    ts = _Tokens(_tokenize(text))
    p = _parse_real(ts)
    ts.done()
    return p


def _rational_arg(ts: _Tokens) -> Fraction:
    t = ts.next()
    if not _RATIONAL.match(t):
        raise ParseFailure(f"expected a rational, got {t!r}")
    return parse_rational(t)


_LINE_MAPS = {
    "const": lambda q: lipschitz_line_map(
        lambda _x: q, 0, METRIC, f"const {rational_str(q)}"),
    "add": lambda q: lipschitz_line_map(
        lambda x: x + q, 1, ISOMETRIC, f"add {rational_str(q)}"),
    "scale": lambda q: lipschitz_line_map(
        lambda x: q * x, abs(q), METRIC if abs(q) <= 1 else UNIFORM,
        f"scale {rational_str(q)}"),
}


def _parse_map(ts: _Tokens) -> MapRep:
    t = ts.next()
    if t == "id":
        return identity_map(LINE)
    if t in ("proj1", "proj2"):
        return proj_map(LINE, LINE, int(t[-1]))
    if t == "neg":
        return line_map(-1, 0, label="neg")
    if t == "abs":
        return lipschitz_line_map(abs, 1, METRIC, "abs")
    if t in _LINE_MAPS:
        ts.expect("(")
        q = _rational_arg(ts)
        ts.expect(")")
        return _LINE_MAPS[t](q)
    if t in ("compose", "pair"):
        ts.expect("(")
        f = _parse_map(ts)
        ts.expect(",")
        g = _parse_map(ts)
        ts.expect(")")
        return (compose_maps if t == "compose" else pair_maps)(f, g)
    raise ParseFailure(f"unknown map operator {t!r}")


def parse_map_expr(text: str) -> MapRep:
    ts = _Tokens(_tokenize(text))
    f = _parse_map(ts)
    ts.done()
    return f


# -- payload helpers -------------------------------------------------------


def _load_payload(args) -> dict:
    text = args.payload if args.payload is not None else sys.stdin.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"payload is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ParseFailure("payload must be a JSON object")
    return payload


# the keys each carrier type reads; any other key is rejected, not ignored
_CARRIER_KEYS = {"line": {"type"}, "finite": {"type", "n", "d"}}


def _carrier_from_json(payload):
    """The carrier object: {"type": "line"} (the default) or
    {"type": "finite", "n": ..., "d": [[...]]}."""
    if not isinstance(payload, dict):
        raise ParseFailure("carrier must be a JSON object")
    kind = payload.get("type", "line")
    if not isinstance(kind, str) or kind not in _CARRIER_KEYS:
        raise ParseFailure(f"unknown carrier type {kind!r}")
    unknown = sorted(set(payload) - _CARRIER_KEYS[kind])
    if unknown:
        raise ParseFailure(f"unknown keys for a {kind} carrier: {unknown}")
    return LINE if kind == "line" else finite_space_from_json(payload)


def _element(carrier, x):
    """A payload's carrier element: a rational on the line, else a point index."""
    return parse_rational(x) if carrier.kind == ("line",) else parse_int(x)


def _open_from_json(carrier, balls) -> BallOpen:
    """A ball open: a JSON array of {"c": center, "r": radius} objects."""
    if not (isinstance(balls, list) and all(isinstance(b, dict) for b in balls)):
        raise ParseFailure(f"a ball open must be a JSON array of objects, got {balls!r}")

    def center(c):
        x = _element(carrier, c)
        if not carrier.contains(x):
            raise ParseFailure(f"ball center {c!r} is not a point of the carrier")
        return x

    return BallOpen(
        carrier,
        tuple(FormalBall(center(b["c"]), parse_rational(b["r"])) for b in balls),
    )


# Largest space sizes accepted: ``spec`` costs grow as n^3 (n = 32 takes about
# 0.06 s), ``admissible`` prints one value per point (n = 10000 takes about 0.05 s).
ADMISSIBLE_MAX_N = 10_000
SPEC_MAX_N = 32


def _space_size(payload, limit: int) -> int:
    """The payload's "n": a JSON integer, not a bool, from 1 to limit."""
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= limit:
        raise ParseFailure(f'"n" must be an integer from 1 to {limit}')
    return n


def _value_with_error(value: Fraction, bits: int) -> str:
    return f"{decimal_str(value)} ± 2^-{bits}"


# -- subcommand handlers ---------------------------------------------------


def _cmd_real_eval(args):
    p = parse_real_expr(args.expr)
    value = p.approx(args.precision)
    return 0, {"value": _value_with_error(value, args.precision)}


def _cmd_map_apply(args):
    f = parse_map_expr(args.map)
    parts = [parse_rational(s) for s in args.point.split(",")]
    if f.source.kind == ("line",):
        if len(parts) != 1:
            raise ParseFailure("this map expects a single rational point")
        p = point_of_carrier(LINE, parts[0])
    else:
        if len(parts) != 2:
            raise ParseFailure("this map expects a pair point 'x,y'")
        p = pair_point(
            point_of_carrier(LINE, parts[0]), point_of_carrier(LINE, parts[1])
        )
    image = apply_map(f, p)
    stage = image.approx(args.precision)
    if isinstance(stage, tuple):
        values = [_value_with_error(s, args.precision) for s in stage]
        return 0, {"map": f.label, "values": values}
    return 0, {"map": f.label, "value": _value_with_error(stage, args.precision)}


def _cmd_ball_check(args):
    payload = _load_payload(args)
    carrier = _carrier_from_json(payload.get("carrier", {}))
    check = payload.get("check")
    u = _open_from_json(carrier, payload.get("u", []))
    if check == "way-inside":
        v = _open_from_json(carrier, payload["v"])
        ans = way_inside(u, parse_rational(payload["eps"]), v, args.effort)
        return 0, {"check": check, "answer": ans.label}
    if check == "diameter":
        q = parse_rational(payload["q"])
        if q <= 0:
            raise ParseFailure("threshold must be a positive rational")
        return 0, {"check": check, "answer": "Yes" if diameter(u) < q else "NotYet"}
    if check == "positive":
        return 0, {"check": check, "answer": is_positive(u)}
    if check == "meet":
        v = _open_from_json(carrier, payload["v"])
        w = meet_witness(u, v, args.effort)
        found = None
        if w is not None:
            found = {"c": repr(w.center), "r": rational_str(w.radius)}
        return 0, {"check": check, "witness": found}
    if check == "member":
        p = point_of_carrier(carrier, _element(carrier, payload["point"]))
        ans = member_query(p, u, args.effort)
        return 0, {"check": check, "answer": ans.label}
    raise ParseFailure(f"unknown ball check {check!r}")


def _cmd_mm_check(args):
    payload = _load_payload(args)
    f = parse_map_expr(payload.get("map", "id"))
    data = {}
    for key, value in payload.get("parts", {}).items():
        if key in RATIONAL_PARTS:
            data[key] = parse_rational(value)
        else:
            data[key] = _open_from_json(LINE, value)
    inst = MMInstance(payload["axiom"], data)
    report = check_axiom(inst, f, args.effort)
    return (1 if report["result"] == "Fail" else 0), report


def _cmd_admissible(args):
    payload = _load_payload(args)
    space = FiniteDiscreteSpace(_space_size(payload, ADMISSIBLE_MAX_N))

    def subset(s):
        if not isinstance(s, list):
            raise ParseFailure(f"a subset must be a JSON array of indices, got {s!r}")
        return frozenset(parse_int(i) for i in s)

    def side(name):
        return [(subset(s), parse_rational(q)) for s, q in payload.get(name, [])]

    b = BasicOpenXR.of(side("lowers"), side("uppers"))
    adm = is_admissible(b, space)
    f = has_point(b, space)
    point = None
    if f is not None:
        point = {str(x): rational_str(f(x)) for x in space.points}
    return 0, {"admissible": adm, "point": point}


def _cmd_spec(args):
    payload = _load_payload(args)
    n = _space_size(payload, SPEC_MAX_N)
    chars = spectrum_of_cn(n)
    samples = [
        (
            AlgebraElement.of_rationals([(1, 0)] * n),
            AlgebraElement.of_rationals([(j, 1) for j in range(n)]),
        )
    ]
    # the sample coordinates reach n - 1; the factor bound must cover them
    bound = max(8, n)
    reports = verify_spectrum(chars, samples, bound=bound, k=16)
    ok = all(r["result"] == "Pass" for r in reports)
    return (0 if ok else 1), {
        "n": n,
        "characters": [c.label for c in chars],
        "reports": reports,
    }


def _cmd_law_suite(args):
    report = run_law_suite(seed=args.seed, effort=args.effort)
    return (0 if report["result"] == "Pass" else 1), report


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseFailure (exit 2)."""

    def error(self, message):
        raise ParseFailure(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--precision", type=int, default=30,
                        help="readout precision in bits (default 30)")
    common.add_argument("--effort", type=int, default=64,
                        help="query effort for semi-decisions (default 64)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--output", default=None, help="write JSON to this path")
    common.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    parser = _Parser(
        prog="formalballs",
        description="Exact formal-ball calculus: evaluation, checks, law suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "real-eval",
        parents=[common],
        help="evaluate an exact real expression",
        description="Grammar: rationals 'p/q'; add(x,y) sub(x,y) neg(x) "
        "abs(x) max(x,y) min(x,y) mul(x,y,bound).",
    )
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_real_eval)

    p = sub.add_parser(
        "map-apply",
        parents=[common],
        help="apply a map expression to a rational point",
        description="Map grammar: id, const(q), add(q), scale(q), neg, abs, "
        "compose(f,g), pair(f,g), proj1, proj2.",
    )
    p.add_argument("map")
    p.add_argument("point", help="rational 'p/q', or 'x,y' for product sources")
    p.set_defaults(handler=_cmd_map_apply)

    for name, handler in (
        ("ball-check", _cmd_ball_check),
        ("mm-check", _cmd_mm_check),
        ("admissible", _cmd_admissible),
        ("spec", _cmd_spec),
    ):
        p = sub.add_parser(name, parents=[common],
                           help=f"run the {name} check on a JSON payload")
        p.add_argument("payload", nargs="?", default=None,
                       help="JSON payload (reads stdin when omitted)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("law-suite", parents=[common],
                       help="run the seeded property catalog")
    p.set_defaults(handler=_cmd_law_suite)
    return parser


_PARSERS: dict = {}  # build function -> the parser it built


def _parser() -> argparse.ArgumentParser:
    """The parser of the current ``build_parser``, built once per process.

    Keyed by the build function, so a ``build_parser`` replaced at module
    level (a tracer's wrapper, say) gets a parser of its own.
    """
    parser = _PARSERS.get(build_parser)
    if parser is None:
        parser = _PARSERS[build_parser] = build_parser()
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.precision < 1 or args.effort < 1:
            raise ParseFailure("precision and effort must be >= 1")
        code, payload = args.handler(args)
    except RecursionError:
        return _emit(json.dumps({"error": "expression nested too deeply"}), 2)
    except (ParseFailure, KeyError, ValueError, IndexError, ArithmeticError,
            TypeError, AttributeError) as exc:  # the last two: ill-shaped JSON
        return _emit(json.dumps({"error": str(exc)}, sort_keys=True), 2)
    if args.pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = suite_json(payload)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _emit(json.dumps({"error": f"cannot write --output: {exc}"}), 2)
    return _emit(text, code)


def _emit(text: str, code: int) -> int:
    """Print the one JSON document and return ``code``, or 2 if stdout is closed.

    A reader that quits early (``formalballs spec ... | head -c 50``) closes
    the pipe.  As in Python's documented SIGPIPE recipe, stdout is then
    pointed at devnull, so the interpreter's final flush cannot raise again.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
