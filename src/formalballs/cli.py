"""Batch command line front end: evaluation, checks, and law reports.

All output is JSON on stdout (deterministic for fixed flags and seed);
exit code 0 for values and passing checks, 1 for a failing check, 2 for
parse or contract errors, and 2 when stdout is closed before the document
is written.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .balls import (
    BallOpen,
    FormalBall,
    diameter,
    is_positive,
    meet_witness,
    way_inside,
)
from .carriers import finite_space_from_json, rational_line
from .completion import member_query, point_of_carrier
from .function_locale import RATIONAL_PARTS, MMInstance, check_axiom
from .gelfand import (
    FiniteDiscreteSpace,
    BasicOpenXR,
    _verify_rows,
    has_point,
    is_admissible,
    spectrum_of_cn,
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


# -- the expression reader -------------------------------------------------

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


_RATIONAL = re.compile(r"-?\d+(?:/\d+)?$")

# operator -> (function, argument kinds): "r" a real, "m" a map, "q" a
# rational, "n" a natural number.  An operator with no arguments takes no
# parentheses.  Each function calls the module's globals when it runs, so a
# wrapper set on the module (a tracer's, say) is the one called.
_REAL_OPS = {
    "neg": (lambda x: neg_r(x), "r"), "abs": (lambda x: abs_r(x), "r"),
    "add": (lambda x, y: add_r(x, y), "rr"), "sub": (lambda x, y: sub_r(x, y), "rr"),
    "max": (lambda x, y: max_r(x, y), "rr"), "min": (lambda x, y: min_r(x, y), "rr"),
    "mul": (lambda x, y, bound: mul_r(x, y, bound), "rrn"),
}
_MAP_OPS = {
    "id": (lambda: identity_map(LINE), ""),
    "proj1": (lambda: proj_map(LINE, LINE, 1), ""),
    "proj2": (lambda: proj_map(LINE, LINE, 2), ""),
    "neg": (lambda: line_map(-1, 0, label="neg"), ""),
    "abs": (lambda: lipschitz_line_map(abs, 1, METRIC, "abs"), ""),
    "const": (lambda q: lipschitz_line_map(
        lambda _x: q, 0, METRIC, f"const {rational_str(q)}"), "q"),
    "add": (lambda q: lipschitz_line_map(
        lambda x: x + q, 1, ISOMETRIC, f"add {rational_str(q)}"), "q"),
    "scale": (lambda q: lipschitz_line_map(
        lambda x: q * x, abs(q), METRIC if abs(q) <= 1 else UNIFORM,
        f"scale {rational_str(q)}"), "q"),
    "compose": (lambda f, g: compose_maps(f, g), "mm"),
    "pair": (lambda f, g: pair_maps(f, g), "mm"),
}


def _next(tokens, want=None) -> str:
    """The next token; it must be ``want`` when that is given."""
    t = next(tokens, None)
    if t is None:
        raise ParseFailure("unexpected end of expression")
    if want is not None and t != want:
        raise ParseFailure(f"expected {want!r}, got {t!r}")
    return t


def _read(kind: str, tokens):
    """Read one argument of ``kind`` (see the tables above) from the token
    iterator; a real may also be a rational literal."""
    t = _next(tokens)
    if kind == "n":
        if not t.isdigit():
            raise ParseFailure("mul bound must be a natural number")
        return int(t)
    if kind != "m" and _RATIONAL.match(t):
        q = parse_rational(t)
        return q if kind == "q" else real_of_rational(q)
    if kind == "q":
        raise ParseFailure(f"expected a rational, got {t!r}")
    name, ops = ("real", _REAL_OPS) if kind == "r" else ("map", _MAP_OPS)
    if t not in ops:
        raise ParseFailure(f"unknown {name} operator {t!r}")
    fn, kinds = ops[t]
    args = []
    for i, arg in enumerate(kinds):
        _next(tokens, "," if i else "(")
        args.append(_read(arg, tokens))
    if kinds:
        _next(tokens, ")")
    return fn(*args)


def _parse(kind: str, text: str):
    tokens = iter(_tokenize(text))
    value = _read(kind, tokens)
    rest = list(tokens)
    if rest:
        raise ParseFailure(f"trailing input: {rest}")
    return value


def parse_real_expr(text: str):
    return _parse("r", text)


def parse_map_expr(text: str) -> MapRep:
    return _parse("m", text)


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


def _field(obj: dict, key: str, path: str):
    """``obj[key]``; a missing key exits 2 naming it, as "<path>.<key> is missing"."""
    if key not in obj:
        raise ParseFailure(f"{path}.{key} is missing")
    return obj[key]


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
    if kind == "line":
        return LINE
    if "n" in payload and parse_int(payload["n"]) > FINITE_MAX_N:
        raise ParseFailure(f"carrier.n must be at most {FINITE_MAX_N}")
    return finite_space_from_json(payload)


def _element(carrier, x):
    """A payload's carrier element: a rational on the line, else a point index."""
    return parse_rational(x) if carrier.kind == ("line",) else parse_int(x)


def _open_from_json(carrier, balls, path: str) -> BallOpen:
    """The ball open at ``path``: a JSON array of {"c": center, "r": radius} objects."""
    if not (isinstance(balls, list) and all(isinstance(b, dict) for b in balls)):
        raise ParseFailure(f"a ball open must be a JSON array of objects, got {balls!r}")

    def ball(i, b):
        at = f"{path}[{i}]"
        c = _field(b, "c", at)
        x = _element(carrier, c)
        if not carrier.contains(x):
            raise ParseFailure(f"ball center {c!r} is not a point of the carrier")
        return FormalBall(x, parse_rational(_field(b, "r", at)))

    return BallOpen(carrier, tuple(ball(i, b) for i, b in enumerate(balls)))


# Largest space sizes accepted: ``spec`` costs grow as n^3 (n = 32 takes about
# 4 ms in process on a 2-core host, n = 5 about 0.15 ms), ``admissible`` prints
# one value per point (n = 10000 takes about 0.05 s), and a finite carrier's
# triangle check is n^3 too (n = 64 takes about 0.03 s).
ADMISSIBLE_MAX_N = 10_000
SPEC_MAX_N = 32
FINITE_MAX_N = 64


def _space_size(payload, limit: int, command: str) -> int:
    """The payload's "n": a JSON integer, not a bool, from 1 to limit."""
    n = _field(payload, "n", f"{command}: payload")
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
    pair = f.source.kind != ("line",)
    if len(parts) != (2 if pair else 1):
        raise ParseFailure("this map expects a pair point 'x,y'" if pair
                           else "this map expects a single rational point")
    image = apply_map(f, point_of_carrier(f.source, tuple(parts) if pair else parts[0]))
    stage = image.approx(args.precision)
    if isinstance(stage, tuple):
        values = [_value_with_error(s, args.precision) for s in stage]
        return 0, {"map": f.label, "values": values}
    return 0, {"map": f.label, "value": _value_with_error(stage, args.precision)}


def _cmd_ball_check(args):
    at = "ball-check: payload"  # where a missing field is said to be
    payload = _load_payload(args)
    carrier = _carrier_from_json(payload.get("carrier", {}))
    check = payload.get("check")
    u = _open_from_json(carrier, payload.get("u", []), "ball-check: payload.u")
    if check in ("way-inside", "meet"):
        v = _open_from_json(carrier, _field(payload, "v", at), "ball-check: payload.v")
    if check == "way-inside":
        ans = way_inside(u, parse_rational(_field(payload, "eps", at)), v, args.effort)
        return 0, {"check": check, "answer": ans.label}
    if check == "diameter":
        q = parse_rational(_field(payload, "q", at))
        if q <= 0:
            raise ParseFailure("threshold must be a positive rational")
        return 0, {"check": check, "answer": "Yes" if diameter(u) < q else "NotYet"}
    if check == "positive":
        return 0, {"check": check, "answer": is_positive(u)}
    if check == "meet":
        w = meet_witness(u, v, args.effort)
        found = None
        if w is not None:
            found = {"c": repr(w.center), "r": rational_str(w.radius)}
        return 0, {"check": check, "witness": found}
    if check == "member":
        p = point_of_carrier(carrier, _element(carrier, _field(payload, "point", at)))
        ans = member_query(p, u, args.effort)
        return 0, {"check": check, "answer": ans.label}
    raise ParseFailure(f"unknown ball check {check!r}")


def _cmd_mm_check(args):
    payload = _load_payload(args)
    text = payload.get("map", "id")
    if not isinstance(text, str):
        raise ParseFailure("mm-check: payload.map must be a string")
    f = parse_map_expr(text)
    parts = payload.get("parts", {})
    if not isinstance(parts, dict):
        raise ParseFailure("mm-check: payload.parts must be an object")
    data = {}
    for key, value in parts.items():
        if key in RATIONAL_PARTS:
            data[key] = parse_rational(value)
        else:
            data[key] = _open_from_json(LINE, value, f"mm-check: payload.parts.{key}")
    inst = MMInstance(_field(payload, "axiom", "mm-check: payload"), data)
    report = check_axiom(inst, f, args.effort)
    return (1 if report["result"] == "Fail" else 0), report


def _cmd_admissible(args):
    payload = _load_payload(args)
    space = FiniteDiscreteSpace(_space_size(payload, ADMISSIBLE_MAX_N, "admissible"))

    def subset(s):
        if not isinstance(s, list):
            raise ParseFailure(f"a subset must be a JSON array of indices, got {s!r}")
        return frozenset(parse_int(i) for i in s)

    def side(name):
        pairs = payload.get(name, [])
        if not isinstance(pairs, list):
            raise ParseFailure(f"admissible: payload.{name} must be a JSON array of "
                               "[subset, q] pairs")
        read = []
        for i, p in enumerate(pairs):
            if not (isinstance(p, list) and len(p) == 2):
                raise ParseFailure(f"admissible: payload.{name}[{i}] must be a [subset, q] "
                                   f"pair, got {p!r}")
            read.append((subset(p[0]), parse_rational(p[1])))
        return read

    b = BasicOpenXR.of(side("lowers"), side("uppers"))
    adm = is_admissible(b, space)
    f = has_point(b, space)
    point = None
    if f is not None:
        point = {str(x): rational_str(f(x)) for x in space.points}
    return 0, {"admissible": adm, "point": point}


def _cmd_spec(args):
    payload = _load_payload(args)
    n = _space_size(payload, SPEC_MAX_N, "spec")
    chars = spectrum_of_cn(n)
    # the sample pair (1, ..., 1) and (j + i) for j < n, built as rows of
    # integer pairs ((re num, re den), (im num, im den))
    a = (((1, 1), (0, 1)),) * n
    b = tuple(((j, 1), (1, 1)) for j in range(n))
    # the sample coordinates reach n - 1; the factor bound must cover them
    bound = max(8, n)
    reports = _verify_rows(chars, [(a, b)], bound=bound, k=16)
    ok = all(r["result"] == "Pass" for r in reports)
    return (0 if ok else 1), {
        "n": n,
        "characters": [c.label for c in chars],
        "reports": reports,
    }


def _cmd_law_suite(args):
    report = run_law_suite(seed=args.seed, effort=args.effort)
    return (0 if report["result"] == "Pass" else 1), report


# -- argument reader -------------------------------------------------------

# subcommand -> (positional names, help).  Its handler is the module's
# ``_cmd_<name>`` when ``build_parser`` runs, so that a handler replaced on the
# module (a tracer's wrapper, say) is the one called.  A left-out "payload" is
# read from stdin.
_COMMANDS = {
    "real-eval": (("expr",), "evaluate an exact real expression; grammar: rationals "
                  "'p/q', add(x,y) sub(x,y) neg(x) abs(x) max(x,y) min(x,y) mul(x,y,bound)"),
    "map-apply": (("map", "point"), "apply a map to a point 'p/q' ('x,y' for a pair "
                  "source); grammar: id, const(q), add(q), scale(q), neg, abs, "
                  "compose(f,g), pair(f,g), proj1, proj2"),
    **{name: (("payload",), f"run the {name} check on a JSON payload (read from "
              "stdin when omitted)") for name in ("ball-check", "mm-check", "admissible", "spec")},
    "law-suite": ((), "run the seeded property catalog"),
}
# flag -> (reader of its value, None for a switch; default; help)
_FLAGS = {
    "--precision": (parse_int, 30, "readout precision in bits (default 30)"),
    "--effort": (parse_int, 64, "query effort for semi-decisions (default 64)"),
    "--seed": (parse_int, 0, "seed for sampled checks (default 0)"),
    "--output": (str, None, "write JSON to this path"),
    "--pretty": (None, False, "indent the JSON output (takes no value)"),
}
_DEFAULTS = {flag[2:]: default for flag, (_, default, _) in _FLAGS.items()}


class _Reader:
    """Reads argv in the forms of README "Command line" into a handler's namespace."""

    def __init__(self, handlers):
        self.handlers = handlers

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else argv
        command = argv[0] if argv else None
        if command not in _COMMANDS:
            if command in ("-h", "--help"):
                _help()
            raise ParseFailure(f"the first argument must be one of: {', '.join(_COMMANDS)}")
        args, positionals, tokens = dict(_DEFAULTS), [], iter(argv[1:])
        for token in tokens:
            if token[:1] != "-" or _RATIONAL.match(token):
                positionals.append(token)
            elif token == "--":
                positionals += tokens  # the rest, which ends the loop
            elif token in ("-h", "--help"):
                _help()
            else:
                flag, eq, value = token.partition("=")
                if flag not in _FLAGS:
                    raise ParseFailure(f"unknown flag {token!r}")
                read = _FLAGS[flag][0]
                if read is None and eq:
                    raise ParseFailure(f"{flag} takes no value")
                if read is not None and not eq:
                    value = next(tokens, None)
                    if value is None or (value[:1] == "-" and not _RATIONAL.match(value)):
                        raise ParseFailure(f"{flag} needs a value")
                try:
                    args[flag[2:]] = True if read is None else read(value)
                except ValueError as exc:
                    raise ParseFailure(f"{flag}: {exc}") from None
        names = _COMMANDS[command][0]
        if not positionals and names == ("payload",):
            positionals.append(None)
        if len(positionals) != len(names):
            raise ParseFailure(f"{command} expects {' '.join(names) or 'no arguments'}; "
                               f"got {len(positionals)}")
        args.update(zip(names, positionals))
        return SimpleNamespace(command=command, handler=self.handlers[command], **args)


def _help():
    """Print the usage text of the two tables and exit 0 (2 if stdout is closed)."""
    lines = [f"usage: formalballs {{{','.join(_COMMANDS)}}} [arguments] [flags]", ""]
    lines += [f"  {' '.join((name, *names))}\n      {text}"
              for name, (names, text) in _COMMANDS.items()]
    lines += ["", "flags, after the subcommand as --flag VALUE or --flag=VALUE; '--' ends them:"]
    lines += [f"  {flag}\n      {text}" for flag, (_, _, text) in _FLAGS.items()]
    raise SystemExit(_emit("\n".join(lines), 0))


def build_parser() -> _Reader:
    """A reader that calls the module's current ``_cmd_*`` handlers."""
    g = globals()
    return _Reader({name: g["_cmd_" + name.replace("-", "_")] for name in _COMMANDS})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
