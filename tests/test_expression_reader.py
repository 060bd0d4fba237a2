"""The table-driven expression reader against the two descents it replaced.

``reference_real_expr`` and ``reference_map_expr`` are the recursive
descents that ``cli`` used before its operator tables, kept here as the
reference with their ``_Tokens`` cursor.  The differential test draws
texts of both grammars, well formed and broken (unclosed, wrong arity,
unknown operators, non-natural ``mul`` bounds, trailing input, bad
tokens), and asserts that both readers give the same outcome: an equal
``approx(64)``, an equal map label, class, modulus, carriers and image,
or the same error type and text.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from formalballs.cli import (
    LINE,
    ParseFailure,
    _RATIONAL,
    _tokenize,
    parse_map_expr,
    parse_real_expr,
)
from formalballs.completion import point_of_carrier
from formalballs.maps import (
    ISOMETRIC,
    METRIC,
    UNIFORM,
    apply_map,
    compose_maps,
    identity_map,
    line_map,
    lipschitz_line_map,
    pair_maps,
    proj_map,
)
from formalballs.numbers import parse_rational, rational_str
from formalballs.reals import (
    abs_r,
    add_r,
    max_r,
    min_r,
    mul_r,
    neg_r,
    real_of_rational,
    sub_r,
)


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


def reference_real_expr(text: str):
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


def _parse_map(ts: _Tokens):
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


def reference_map_expr(text: str):
    ts = _Tokens(_tokenize(text))
    f = _parse_map(ts)
    ts.done()
    return f


def real_outcome(parse, text):
    try:
        return "value", parse(text).approx(64)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def map_outcome(parse, text):
    """The map's label, class, modulus at 1/8, carriers and image of one
    point, or the error."""
    try:
        f = parse(text)
        x = Fraction(1, 3) if f.source.kind == ("line",) else (Fraction(1, 3), Fraction(-2))
        image = apply_map(f, point_of_carrier(f.source, x)).approx(16)
        return ("map", f.label, f.cls, f.modulus(Fraction(1, 8)), f.source.kind,
                f.target.kind, image)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# -- drawn texts -------------------------------------------------------------

RATIONALS = st.sampled_from(["0", "1", "-1", "3", "-2", "1/3", "-7/4", "1/0", "12/5"])
BOUNDS = st.sampled_from(["2", "3", "9", "0", "-3", "3/2", "x", "(", "٣"])
JUNK = st.sampled_from(["frob", "1.5", "#", ")", "(", ",", "2", "id", "mul", "", " "])


def call(name, args):
    return f"{name}({', '.join(args)})"


def real_texts(depth=3):
    """Well-formed real texts, with some non-natural or too small mul bounds."""
    if depth == 0:
        return RATIONALS
    sub = real_texts(depth - 1)
    return st.one_of(
        RATIONALS,
        st.tuples(st.sampled_from(["neg", "abs"]), sub).map(lambda t: call(t[0], [t[1]])),
        st.tuples(st.sampled_from(["add", "sub", "max", "min"]), sub, sub).map(
            lambda t: call(t[0], t[1:])),
        st.tuples(sub, sub, BOUNDS).map(lambda t: call("mul", t)),
    )


def map_texts(depth=3):
    """Well-formed map texts, with some rationals that are not ones."""
    leaves = st.one_of(
        st.sampled_from(["id", "neg", "abs", "proj1", "proj2"]),
        st.tuples(st.sampled_from(["const", "add", "scale"]),
                  RATIONALS | st.sampled_from(["id", "x"])).map(
            lambda t: call(t[0], [t[1]])),
    )
    if depth == 0:
        return leaves
    sub = map_texts(depth - 1)
    return leaves | st.tuples(st.sampled_from(["compose", "pair"]), sub, sub).map(
        lambda t: call(t[0], t[1:]))


@st.composite
def broken(draw, texts):
    """A drawn text, then maybe a token cut or repeated, a token swapped for
    junk, an argument added or dropped, or junk appended."""
    toks = _tokenize(draw(texts))
    how = draw(st.sampled_from(["none"] * 4 + ["cut", "repeat", "swap", "extra", "fewer",
                                              "append"]))
    i = draw(st.integers(0, len(toks) - 1))
    if how == "cut":
        toks = toks[:i] + toks[i + 1:]
    elif how == "repeat":
        toks.insert(i, toks[i])
    elif how == "swap":
        toks[i] = draw(JUNK)
    elif how == "extra" and ")" in toks:
        j = toks.index(")")
        toks[j:j] = [",", "1"]
    elif how == "fewer" and "," in toks:
        j = toks.index(",")
        del toks[j:j + 2]
    elif how == "append":
        toks.append(draw(JUNK))
    return draw(st.sampled_from([" ", "", "  "])).join(toks)


@settings(max_examples=300, deadline=None)
@given(broken(real_texts()))
@example("add(1/3")
@example("frob(1)")
@example("mul(5,5,2)")
@example("mul(1, 2, 3/2)")
@example("sub(1, 3)")
@example("1/2 extra")
@example("1 @ 2")
def test_the_real_reader_reads_as_the_descent_did(text):
    assert real_outcome(parse_real_expr, text) == real_outcome(reference_real_expr, text)


@settings(max_examples=300, deadline=None)
@given(broken(map_texts()))
@example("wiggle")
@example("const(id)")
@example("compose(id)")
@example("compose(scale(1/2), add(1))")
@example("scale(-1)")
@example("pair(1, id)")
@example("pair(proj1, id)")
@example("id id")
@example("id(")
def test_the_map_reader_reads_as_the_descent_did(text):
    assert map_outcome(parse_map_expr, text) == map_outcome(reference_map_expr, text)
