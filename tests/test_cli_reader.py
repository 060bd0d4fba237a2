"""The table-driven argument reader against the argparse parser it replaced.

``reference_parser`` is the argparse ``build_parser`` that ``cli`` used
before, kept here as the reference.  The differential test draws argv from
the seven subcommands, the five flags in both forms and repeated, ``--``,
rationals and JSON payload texts, and asserts that both parsers accept with
equal fields or both reject.  The forms where the two differ on purpose
each have an example test below.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalballs import cli
from formalballs.cli import ParseFailure, build_parser

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("real-eval", "map-apply", "ball-check", "mm-check", "admissible", "spec",
            "law-suite")
FLAGS = ("--precision", "--effort", "--seed", "--output", "--pretty")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseFailure(message)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser as ``cli.build_parser`` built it before the reader."""
    common = _Parser(add_help=False)
    common.add_argument("--precision", type=int, default=30)
    common.add_argument("--effort", type=int, default=64)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output", default=None)
    common.add_argument("--pretty", action="store_true")
    parser = _Parser(prog="formalballs")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("real-eval", parents=[common])
    p.add_argument("expr")
    p.set_defaults(handler=cli._cmd_real_eval)
    p = sub.add_parser("map-apply", parents=[common])
    p.add_argument("map")
    p.add_argument("point")
    p.set_defaults(handler=cli._cmd_map_apply)
    for name, handler in (
        ("ball-check", cli._cmd_ball_check),
        ("mm-check", cli._cmd_mm_check),
        ("admissible", cli._cmd_admissible),
        ("spec", cli._cmd_spec),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("payload", nargs="?", default=None)
        p.set_defaults(handler=handler)
    p = sub.add_parser("law-suite", parents=[common])
    p.set_defaults(handler=cli._cmd_law_suite)
    return parser


def read(parser, argv):
    """The fields ``parser`` reads from argv, or None for a usage error."""
    try:
        return vars(parser.parse_args(argv))
    except ParseFailure:
        return None


REFERENCE = reference_parser()

int_values = st.integers(-3, 99).map(str) | st.just("x")
flag_groups = st.one_of(
    st.just(["--pretty"]),
    st.tuples(st.sampled_from(FLAGS[:3]), int_values),
    st.tuples(st.just("--output"), st.sampled_from(["out.json", "-3", "7/2", "a b", ""])),
).flatmap(lambda group: st.just(group) if len(group) == 1 else st.sampled_from(
    [list(group), [f"{group[0]}={group[1]}"]]))
rationals = st.one_of(
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
payloads = st.dictionaries(
    st.sampled_from(["n", "check", "axiom", "u"]),
    st.integers(-2, 5) | st.text(max_size=3), max_size=2,
).map(json.dumps)
positionals = st.one_of(rationals, payloads, st.sampled_from(["id", "add(1, 2)", "x,y"]))


@st.composite
def argvs(draw):
    """A subcommand, then flag groups and positionals in any order, and at
    most one ``--``, placed right before a positional (see
    ``test_a_dash_dash_with_nothing_after_it_is_accepted``)."""
    items = draw(st.lists(flag_groups | positionals.map(lambda t: [t]), max_size=5))
    starts = [i for i, item in enumerate(items) if not item[0].startswith("--")]
    if starts and draw(st.booleans()):
        items.insert(draw(st.sampled_from(starts)), ["--"])
    return [draw(st.sampled_from(COMMANDS)), *(token for item in items for token in item)]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_reader_reads_as_argparse_did(argv):
    assert read(build_parser(), argv) == read(REFERENCE, argv)


# -- the forms the two read differently, on purpose ------------------------


def test_a_flag_prefix_is_no_longer_read_as_the_flag():
    argv = ["real-eval", "1", "--prec", "8"]
    assert read(REFERENCE, argv)["precision"] == 8
    assert read(build_parser(), argv) is None


def test_a_negative_fraction_is_a_positional(capsys):
    argv = ["map-apply", "id", "-1/2"]
    assert read(REFERENCE, argv) is None  # "the following arguments are required: point"
    assert read(build_parser(), argv)["point"] == "-1/2"
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"map": "id", "value": "-0.5 ± 2^-30"}
    assert read(build_parser(), ["real-eval", "-1/2"])["expr"] == "-1/2"


@pytest.mark.parametrize("value", ["1_0", "٣", "８"])
def test_an_integer_flag_takes_ascii_digits_only(value):
    # int() reads "1_0" as 10 and the Arabic-Indic or fullwidth digits as 3 and 8
    argv = ["real-eval", "1", "--precision", value]
    assert read(REFERENCE, argv)["precision"] == int(value)
    with pytest.raises(ParseFailure, match="--precision: not an integer"):
        build_parser().parse_args(argv)


def test_usage_errors_keep_their_verdict_in_new_words():
    for argv, words in (
        (["real-eval"], "real-eval expects expr; got 0"),
        (["map-apply", "id", "1", "2"], "map-apply expects map point; got 3"),
        (["law-suite", "1"], "law-suite expects no arguments; got 1"),
        (["frobnicate"], "the first argument must be one of: real-eval, "),
        ([], "the first argument must be one of: "),
        (["real-eval", "1", "--bogus"], "unknown flag '--bogus'"),
        (["real-eval", "1", "--precision"], "--precision needs a value"),
        (["real-eval", "1", "--precision", "--pretty"], "--precision needs a value"),
        (["real-eval", "1", "--pretty=1"], "--pretty takes no value"),
        (["real-eval", "1", "--seed=x"], "--seed: not an integer: 'x'"),
    ):
        assert read(REFERENCE, argv) is None
        with pytest.raises(ParseFailure) as caught:
            build_parser().parse_args(argv)
        assert str(caught.value).startswith(words)


def test_a_dash_dash_with_nothing_after_it_is_accepted():
    # argparse dropped a "--" only when a positional's match took it in, and
    # then dropped a second "--" from the positional that read it
    for argv in (["law-suite", "--"], ["real-eval", "1", "--pretty", "--"],
                 ["ball-check", "{}", "--"]):
        fields = read(build_parser(), argv)
        assert fields is not None and fields == read(build_parser(), argv[:-1])
    assert read(REFERENCE, ["law-suite", "--"]) is None
    assert read(REFERENCE, ["real-eval", "1", "--pretty", "--"]) is None
    argv = ["map-apply", "id", "--", "--"]
    assert read(REFERENCE, argv)["point"] == []
    assert read(build_parser(), argv)["point"] == "--"


@pytest.mark.parametrize("token", ["-", "-1 + 2", "-x y"])
def test_a_dash_token_that_is_no_rational_is_a_usage_error(token):
    # argparse read a lone "-", and a "-" token with a space in it, as a positional
    assert read(REFERENCE, ["real-eval", token])["expr"] == token
    with pytest.raises(ParseFailure, match="unknown flag"):
        build_parser().parse_args(["real-eval", token])
    assert read(build_parser(), ["real-eval", "--", token])["expr"] == token


# -- help and imports ------------------------------------------------------


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["spec", "-h"],
                                  ["map-apply", "id", "--help", "1"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        cli.main(argv)
    assert caught.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage:")
    assert all(name in out for name in COMMANDS + FLAGS)


def test_the_cli_imports_no_argparse_and_prints_help():
    env = {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, formalballs.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
    done = subprocess.run([sys.executable, "-m", "formalballs.cli", "-h"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage:")
    assert all(name in done.stdout for name in COMMANDS + FLAGS)
    for grammar in ("mul(x,y,bound)", "compose(f,g), pair(f,g), proj1, proj2"):
        assert grammar in done.stdout
