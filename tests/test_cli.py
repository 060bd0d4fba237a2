import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalballs import cli
from formalballs.cli import ParseFailure, main, parse_map_expr, parse_real_expr


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_real_eval_examples(capsys):
    code, payload = run_cli(capsys, "real-eval", "add(1/3, add(1/3, 1/3))")
    assert code == 0
    assert payload == {"value": "1 ± 2^-30"}
    code, payload = run_cli(
        capsys, "real-eval", "mul(3/2, 3/2, 3)", "--precision", "10"
    )
    assert code == 0
    assert payload["value"].startswith("2.25")


def test_real_eval_bad_expr_exit_2(capsys):
    code, payload = run_cli(capsys, "real-eval", "add(1/3")
    assert code == 2
    assert "error" in payload
    code, payload = run_cli(capsys, "real-eval", "frob(1)")
    assert code == 2


def test_map_apply_examples(capsys):
    code, payload = run_cli(capsys, "map-apply", "compose(scale(1/2), add(1))", "3")
    assert code == 0
    assert payload["value"].startswith("2 ")
    code, payload = run_cli(capsys, "map-apply", "pair(id, neg)", "5/2")
    assert code == 0
    assert len(payload["values"]) == 2
    code, payload = run_cli(capsys, "map-apply", "proj2", "1,7")
    assert code == 0
    assert payload["value"].startswith("7 ")


def test_map_apply_arity_mismatch(capsys):
    code, payload = run_cli(capsys, "map-apply", "id", "1,2")
    assert code == 2


def test_ball_check_way_inside(capsys):
    payload = json.dumps(
        {
            "check": "way-inside",
            "u": [{"c": "0", "r": "1/2"}],
            "eps": "1/4",
            "v": [{"c": "0", "r": "2"}],
        }
    )
    code, out = run_cli(capsys, "ball-check", payload)
    assert code == 0
    assert out == {"answer": "Yes", "check": "way-inside"}


def test_ball_check_diameter_and_member(capsys):
    payload = json.dumps(
        {"check": "diameter", "u": [{"c": "0", "r": "1/2"}], "q": "101/100"}
    )
    code, out = run_cli(capsys, "ball-check", payload)
    assert code == 0 and out["answer"] == "Yes"
    payload = json.dumps(
        {"check": "member", "u": [{"c": "0", "r": "1"}], "point": "1/2"}
    )
    code, out = run_cli(capsys, "ball-check", payload)
    assert code == 0 and out["answer"] == "Yes"


def test_ball_check_meet_witness(capsys):
    payload = json.dumps(
        {
            "check": "meet",
            "u": [{"c": "0", "r": "1"}],
            "v": [{"c": "1", "r": "1"}],
        }
    )
    code, out = run_cli(capsys, "ball-check", payload)
    assert code == 0 and out["witness"] is not None


def test_mm_check_pass_exit_0(capsys):
    payload = json.dumps(
        {
            "axiom": "MM3",
            "map": "scale(1/2)",
            "parts": {"u": [{"c": "0", "r": "1"}], "q": "1/4"},
        }
    )
    code, out = run_cli(capsys, "mm-check", payload)
    assert code == 0
    assert out["result"] == "Pass"


def test_mm_check_fail_exit_1(capsys):
    # x -> 2x maps u's centers 1 apart to -1 and 1, the centers of v and vp
    payload = json.dumps({"axiom": "MM6", "map": "scale(2)", "parts": {
        "u": [{"c": "-1/2", "r": "1/8"}, {"c": "1/2", "r": "1/8"}],
        "v": [{"c": "-1", "r": "1/8"}], "vp": [{"c": "1", "r": "1/8"}],
    }})
    code = main(["mm-check", payload])
    out, err = capsys.readouterr()
    assert code == 1 and err == "" and out.count("\n") == 1
    report = json.loads(out)
    assert report["result"] == "Fail"
    assert report["witness"] == {"pair": ["Fraction(-1, 1)", "Fraction(1, 1)"],
                                 "distance_lower": "2/1", "rhs_upper": "7/4"}


def test_mm_check_bad_axiom_exit_2(capsys):
    code, out = run_cli(capsys, "mm-check", json.dumps({"axiom": "MM9", "parts": {}}))
    assert code == 2


def test_admissible_example(capsys):
    payload = json.dumps(
        {"n": 2, "lowers": [[[0], "0"]], "uppers": [[[0], "1"]]}
    )
    code, out = run_cli(capsys, "admissible", payload)
    assert code == 0
    assert out == {"admissible": False, "point": None}
    payload = json.dumps(
        {"n": 2, "lowers": [[[0], "0"]], "uppers": [[[1], "1"]]}
    )
    code, out = run_cli(capsys, "admissible", payload)
    assert code == 0
    assert out["admissible"] is True
    assert out["point"] == {"0": "-1/1", "1": "2/1"}


def test_spec_command(capsys):
    code, out = run_cli(capsys, "spec", json.dumps({"n": 3}))
    assert code == 0
    assert out["characters"] == ["eval@0", "eval@1", "eval@2"]
    assert all(r["result"] == "Pass" for r in out["reports"])


@pytest.mark.parametrize("n", [9, 12])
def test_spec_bound_covers_the_samples(capsys, n):
    code, out = run_cli(capsys, "spec", json.dumps({"n": n}))
    assert code == 0
    assert len(out["reports"]) == n
    assert all(r["result"] == "Pass" for r in out["reports"])


# sha256 of `formalballs spec '{"n": n}'` stdout, taken before characters
# were evaluated as one integer dot product; the fold must not move a byte
SPEC_STDOUT_SHA256 = {
    1: "0c66babe5e9c0b9f054a0d522531778b464b9eb2f9c70e85f47640f4a8a50c96",
    5: "79bf31d6bf668f0584ce3dbbb92bbb9b97fdca7deb4f8c4bec4c7f6488be1157",
    9: "eadc2046963769ec800d4056c7668a9e7665bb113730f1dcafe2bf2d6b5ec30f",
    32: "9ba66235d63f1271e8606e5239ee369bdb35179d5cfee311eec07dc47987e207",
}


@pytest.mark.parametrize("n", sorted(SPEC_STDOUT_SHA256))
def test_spec_stdout_bytes_are_pinned(capsys, n):
    code = main(["spec", json.dumps({"n": n})])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SPEC_STDOUT_SHA256[n]


@pytest.mark.parametrize("command, limit", [("admissible", cli.ADMISSIBLE_MAX_N),
                                            ("spec", cli.SPEC_MAX_N)])
@pytest.mark.parametrize("n", ["2.9", "5.0", "true", "false", '"3"', "null", "[3]",
                               "0", "-1", "LIMIT + 1", "10000000"])
def test_space_size_must_be_an_integer_in_range(capsys, command, limit, n):
    n = str(limit + 1) if n == "LIMIT + 1" else n
    code, out = run_cli(capsys, command, '{"n": %s}' % n)
    assert (code, out) == (2, {"error": f'"n" must be an integer from 1 to {limit}'})


def test_admissible_accepts_its_largest_space(capsys):
    n = cli.ADMISSIBLE_MAX_N
    code, out = run_cli(capsys, "admissible", json.dumps({"n": n}))
    assert code == 0 and len(out["point"]) == n


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_without_a_traceback(unbuffered):
    """A reader that quits early, as in ``formalballs spec ... | head -c 50``.

    The read end is closed before the command starts, so its first write
    meets a broken pipe whatever the timing.  Buffered, the write that fails
    is the flush; unbuffered, it is the print.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "formalballs.cli", "spec", '{"n": 5}'],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 2


def test_law_suite_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code = main(["law-suite", "--seed", "3", "--effort", "16",
                 "--output", str(out1)])
    capsys.readouterr()
    assert code == 0
    code = main(["law-suite", "--seed", "3", "--effort", "16",
                 "--output", str(out2)])
    capsys.readouterr()
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["result"] == "Pass"


def test_unwritable_output_exits_2_with_one_error_document(capsys, tmp_path):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code = main(["real-eval", "1/3", "--output", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.count("\n") == 1
        assert set(json.loads(captured.out)) == {"error"}
        assert captured.err == ""


def test_invalid_flag_values(capsys):
    code, out = run_cli(capsys, "real-eval", "1", "--precision", "0")
    assert code == 2


def test_parsers_reject_trailing_garbage():
    with pytest.raises(ParseFailure):
        parse_real_expr("1/2 extra")
    with pytest.raises(ParseFailure):
        parse_map_expr("id id")


TWO_POINTS = {"type": "finite", "n": 2, "d": [["0", "1"], ["1", "0"]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["real-eval", "mul(5,5,2)"],
        ["real-eval", "1/0"],
        ["map-apply", "scale(2)", "1/0"],
        ["ball-check", "[1]"],
        ["ball-check", json.dumps({
            "check": "member", "carrier": TWO_POINTS,
            "u": [{"c": "-2", "r": "1"}], "point": "0",
        })],
        # finite-carrier indices: a JSON integer or an integer string, nothing else
        ["ball-check", json.dumps({
            "check": "member", "carrier": TWO_POINTS,
            "u": [{"c": 1.9, "r": "1/2"}], "point": 1,
        })],
        ["ball-check", json.dumps({
            "check": "member", "carrier": TWO_POINTS,
            "u": [{"c": 1, "r": "1/2"}], "point": 1.2,
        })],
        ["ball-check", json.dumps({
            "check": "member", "carrier": TWO_POINTS,
            "u": [{"c": True, "r": "1/2"}], "point": "1",
        })],
        ["ball-check", json.dumps({
            "check": "member", "carrier": TWO_POINTS,
            "u": [{"c": "1", "r": "1/2"}], "point": "1.0",
        })],
        ["ball-check", json.dumps({
            "check": "member", "carrier": dict(TWO_POINTS, n=2.9),
            "u": [{"c": 0, "r": "1/2"}], "point": 0,
        })],
        # a carrier object carries only the keys its type reads: no
        # finite table read as the line, no misspelled "type", no strings
        *(["ball-check", json.dumps({
            "check": "member", "carrier": carrier,
            "u": [{"c": 0, "r": "2"}], "point": 1,
        })] for carrier in (
            {"n": 2, "d": [["0", "5"], ["5", "0"]]},
            {"kind": "finite", "n": 2, "d": [["0", "5"], ["5", "0"]]},
            {"type": "line", "n": 2},
            dict(TWO_POINTS, metric="max"),
            {"type": ["finite"]},
            "finite",
            ["finite"],
        )),
        ["admissible", json.dumps({"n": 2, "lowers": [[[0.9], "0"]], "uppers": []})],
        ["admissible", json.dumps({"n": 2, "lowers": [], "uppers": [[[1.5], "1"]]})],
        ["admissible", json.dumps({"n": 2, "lowers": [[[False], "0"]], "uppers": []})],
        # a rational is a JSON integer or a "p/q" string, never a bool
        ["ball-check", json.dumps({
            "check": "member", "u": [{"c": True, "r": True}], "point": True,
        })],
        ["mm-check", json.dumps({
            "axiom": "MM3", "map": "scale(1/2)",
            "parts": {"u": [{"c": "0", "r": "1"}], "q": True},
        })],
        ["admissible", json.dumps({"n": 2, "lowers": [[[0], True]], "uppers": []})],
        ["real-eval", "neg(" * 3000 + "1" + ")" * 3000],
        ["map-apply", "compose(id," * 1500 + "id" + ")" * 1500, "1/2"],
        # a subset is a JSON array: never a string's characters or an object's keys
        ["admissible", json.dumps({"n": 12, "lowers": [["11", "0"]], "uppers": []})],
        ["admissible", json.dumps({"n": 2, "lowers": [[{"1": 2}, "0"]], "uppers": []})],
        # a ball open is a JSON array: never an object's keys or a string's characters
        ["ball-check", json.dumps({"check": "diameter", "u": {}, "q": "1"})],
        ["ball-check", json.dumps({"check": "positive", "u": ""})],
        ["ball-check", json.dumps({
            "check": "way-inside", "u": [{"c": "0", "r": "1"}], "eps": "1", "v": {},
        })],
        ["ball-check", json.dumps({"check": "meet", "u": [{"c": "0", "r": "1"}], "v": ""})],
        # the diameter threshold is a positive rational
        *(["ball-check", json.dumps({
            "check": "diameter", "u": [{"c": "0", "r": "1"}], "q": q,
        })] for q in ("0", "-1")),
    ],
)
def test_contract_errors_exit_2_with_one_error_document(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert out.count("\n") == 1 and set(json.loads(out)) == {"error"}


def test_carrier_objects_are_read_by_their_type(capsys):
    table = [["0", "5"], ["5", "0"]]
    request = {"check": "member", "u": [{"c": 0, "r": "2"}], "point": 1}
    for carrier, answer in (({"type": "finite", "n": 2, "d": table}, "NotYet"),
                            ({"type": "line"}, "Yes"), ({}, "Yes"), (None, "Yes")):
        payload = request if carrier is None else dict(request, carrier=carrier)
        assert run_cli(capsys, "ball-check", json.dumps(payload)) == (
            0, {"check": "member", "answer": answer})
    code, payload = run_cli(capsys, "ball-check", json.dumps(
        dict(request, carrier={"kind": "finite", "n": 2, "d": table})))
    assert (code, payload) == (
        2, {"error": "unknown keys for a line carrier: ['d', 'kind', 'n']"})
    code, payload = run_cli(capsys, "ball-check", json.dumps(dict(request, carrier="finite")))
    assert (code, payload) == (2, {"error": "carrier must be a JSON object"})


def discrete_carrier(n):
    """A finite carrier of n points, each pair at distance 1."""
    table = [["0" if i == j else "1" for j in range(int(n))] for i in range(int(n))]
    return {"type": "finite", "n": n, "d": table}


@pytest.mark.parametrize("carrier, message", [
    (dict(TWO_POINTS, d=None), "carrier.d must be a JSON array of 2 rows"),
    (dict(TWO_POINTS, d={"0": ["0", "1"], "1": ["1", "0"]}),
     "carrier.d must be a JSON array of 2 rows"),
    (dict(TWO_POINTS, d=[["0", "1"], ["1", "0"], ["2", "2"]]),
     "carrier.d must be a JSON array of 2 rows"),
    (dict(TWO_POINTS, d=[["0", "1"], ["1"]]), "carrier.d[1] must be a JSON array of 2 entries"),
    (dict(TWO_POINTS, d=[["0", "1", "9"], ["1", "0"]]),
     "carrier.d[0] must be a JSON array of 2 entries"),
    (dict(TWO_POINTS, d=["01", "10"]), "carrier.d[0] must be a JSON array of 2 entries"),
    ({"type": "finite", "d": [["0"]]}, "carrier.n is missing"),
    (discrete_carrier(cli.FINITE_MAX_N + 1), "carrier.n must be at most 64"),
    (discrete_carrier(str(cli.FINITE_MAX_N + 1)), "carrier.n must be at most 64"),
], ids=["d null", "d object", "extra row", "short row", "long row", "string rows", "no n",
        "n above the limit", "n string above the limit"])
def test_a_finite_carrier_table_of_the_wrong_shape_is_named(capsys, carrier, message):
    payload = {"check": "member", "carrier": carrier, "u": [{"c": 0, "r": "2"}], "point": 1}
    assert run_cli(capsys, "ball-check", json.dumps(payload)) == (2, {"error": message})


def test_a_finite_carrier_of_the_largest_size_is_read(capsys):
    carrier = discrete_carrier(cli.FINITE_MAX_N)
    payload = {"check": "member", "carrier": carrier, "u": [{"c": 0, "r": "2"}], "point": 1}
    assert run_cli(capsys, "ball-check", json.dumps(payload)) == (
        0, {"check": "member", "answer": "Yes"})


def test_zero_denominator_error_names_the_text(capsys):
    for argv in (["real-eval", "1/0"], ["map-apply", "add(1/0)", "1"],
                 ["map-apply", "id", "1/0"]):
        code, payload = run_cli(capsys, *argv)
        assert code == 2
        assert payload == {"error": "zero denominator in '1/0'"}


def test_depth_200_expressions_still_evaluate(capsys):
    code, payload = run_cli(capsys, "real-eval", "neg(" * 200 + "1/3" + ")" * 200)
    assert (code, payload) == (0, {"value": "1/3 ± 2^-30"})
    code, payload = run_cli(
        capsys, "map-apply", "compose(neg," * 200 + "id" + ")" * 200, "1/3")
    assert code == 0 and payload["value"] == "1/3 ± 2^-30"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 9) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
PAYLOAD_KEYS = ("check", "u", "v", "eps", "point", "carrier", "map", "axiom",
                "parts", "lowers", "uppers", "c", "r", "type", "d")
# "n" also past the space-size limits, and as floats and bools
n_values = json_values | st.floats() | st.sampled_from(
    [cli.SPEC_MAX_N + 1, cli.ADMISSIBLE_MAX_N + 1, 10_000_000, 2 ** 70])
payload_objects = st.tuples(
    st.dictionaries(st.sampled_from(PAYLOAD_KEYS), json_values, max_size=4),
    st.dictionaries(st.just("n"), n_values, max_size=1),
).map(lambda parts: {**parts[0], **parts[1]})
payload_texts = st.one_of(
    st.text(max_size=24),
    json_values.map(json.dumps),
    payload_objects.map(json.dumps),
)
flag_lists = st.lists(
    st.one_of(
        st.just(["--pretty"]),
        st.tuples(st.sampled_from(["--precision", "--effort", "--seed"]),
                  st.integers(-2, 40).map(str)).map(list),
    ),
    max_size=2,
).map(lambda groups: [token for group in groups for token in group])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["real-eval", "map-apply", "ball-check", "mm-check",
                     "admissible", "spec"]),
    st.lists(payload_texts, min_size=1, max_size=2),
    flag_lists,
)
def test_cli_contract_holds_for_any_input(command, texts, flags):
    """Exit code 0, 1 or 2, exactly one JSON document, nothing on stderr.

    The one exception is an explicit help flag (a text such as "-h"), for
    which the reader prints its usage text and exits 0.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, *flags, *texts])
        except SystemExit as exc:
            assert exc.code == 0 and out.getvalue().startswith("usage:")
            assert any(t.startswith("-") for t in texts)
            return
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    assert out.getvalue().endswith("\n")
    json.loads(out.getvalue())  # raises on no document or on a second one


def test_usage_errors_exit_2_with_one_error_document(capsys):
    for argv in (["real-eval"], ["real-eval", "1", "--precision", "x"],
                 ["frobnicate"], ["map-apply", "id", "1", "--bogus"]):
        code, payload = run_cli(capsys, *argv)
        assert code == 2 and set(payload) == {"error"}
    assert capsys.readouterr().err == ""


def test_center_outside_carrier_message_is_unchanged(capsys):
    code, payload = run_cli(capsys, "ball-check", json.dumps({
        "check": "member", "carrier": TWO_POINTS,
        "u": [{"c": "-2", "r": "1"}], "point": "0",
    }))
    assert (code, payload) == (2, {"error": "ball center '-2' is not a point of the carrier"})


def test_reused_parser_answers_as_a_fresh_one(capsys):
    requests = (
        ["real-eval", "1/3", "--precision", "x"],  # usage error
        ["real-eval", "1/0"],  # contract error
        ["real-eval", "1/3", "--precision", "8", "--pretty"],
        ["real-eval", "1/3"],  # flags of the last request must not stick
    )
    reader = cli.build_parser()
    with pytest.raises(ParseFailure):
        reader.parse_args(requests[0])
    for argv in requests[1:]:
        assert vars(reader.parse_args(list(argv))) == vars(cli.build_parser().parse_args(argv))

    def answers(order):
        out = {}
        for i in order:
            code = main(list(requests[i]))
            out[i] = (code, capsys.readouterr())
        return [out[i] for i in range(len(requests))]

    fresh = answers(range(len(requests)))
    assert answers(reversed(range(len(requests)))) == fresh
    assert answers(range(len(requests))) == fresh
    assert [code for code, _ in fresh] == [2, 2, 0, 0]
    assert json.loads(fresh[3][1].out) == {"value": "1/3 ± 2^-30"}


BALL = {"c": "0", "r": "1"}


@pytest.mark.parametrize("command, payload, message", [
    ("admissible", {"lowers": []}, "admissible: payload.n is missing"),
    ("spec", {}, "spec: payload.n is missing"),
    ("mm-check", {"map": "id", "parts": {}}, "mm-check: payload.axiom is missing"),
    ("ball-check", {"check": "way-inside", "u": [BALL], "eps": "1"},
     "ball-check: payload.v is missing"),
    ("ball-check", {"check": "meet", "u": [BALL]}, "ball-check: payload.v is missing"),
    ("ball-check", {"check": "way-inside", "u": [BALL], "v": [BALL]},
     "ball-check: payload.eps is missing"),
    ("ball-check", {"check": "diameter", "u": [BALL]}, "ball-check: payload.q is missing"),
    ("ball-check", {"check": "member", "u": [BALL]}, "ball-check: payload.point is missing"),
    ("ball-check", {"check": "positive", "u": [BALL, {"r": "1"}]},
     "ball-check: payload.u[1].c is missing"),
    ("ball-check", {"check": "meet", "u": [BALL], "v": [{"c": "0"}]},
     "ball-check: payload.v[0].r is missing"),
    ("mm-check", {"axiom": "MM3", "parts": {"u": [{"c": "0"}], "q": "1"}},
     "mm-check: payload.parts.u[0].r is missing"),
])
def test_a_missing_payload_field_is_named(capsys, command, payload, message):
    assert run_cli(capsys, command, json.dumps(payload)) == (2, {"error": message})


@pytest.mark.parametrize("argv, message", [
    # the five malformed requests of the benchmark's cli workload
    (["real-eval", "add(1/3"], "unexpected end of expression"),
    (["real-eval", "frob(1)"], "unknown real operator 'frob'"),
    (["map-apply", "wiggle", "1"], "unknown map operator 'wiggle'"),
    (["map-apply", "id", "1,2"], "this map expects a single rational point"),
    (["ball-check", "{not json"], "payload is not valid JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    # and its five contract-breaking ones
    (["real-eval", "mul(5,5,2)"], "could not certify |value| <= 2"),
    (["real-eval", "1/0"], "zero denominator in '1/0'"),
    (["map-apply", "scale(2)", "1/0"], "zero denominator in '1/0'"),
    (["ball-check", "[1]"], "payload must be a JSON object"),
    (["ball-check", json.dumps({
        "check": "member", "carrier": TWO_POINTS,
        "u": [{"c": "-2", "r": "1"}], "point": "0",
    })], "ball center '-2' is not a point of the carrier"),
])
def test_the_benchmark_error_texts_are_pinned(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, {"error": message})


@pytest.mark.parametrize("text", [None, [None]])
def test_an_mm_check_map_that_is_no_string_is_named(capsys, text):
    payload = {"axiom": "MM3", "map": text}
    assert run_cli(capsys, "mm-check", json.dumps(payload)) == (
        2, {"error": "mm-check: payload.map must be a string"})


def test_mm_check_parts_that_are_no_object_are_named(capsys):
    for parts in ([], "u", 3, None):
        payload = {"axiom": "MM3", "map": "id", "parts": parts}
        assert run_cli(capsys, "mm-check", json.dumps(payload)) == (
            2, {"error": "mm-check: payload.parts must be an object"})


@pytest.mark.parametrize("side, value, message", [
    ("lowers", {"a": 1}, "admissible: payload.lowers must be a JSON array of [subset, q] pairs"),
    ("lowers", 5, "admissible: payload.lowers must be a JSON array of [subset, q] pairs"),
    ("uppers", "ab", "admissible: payload.uppers must be a JSON array of [subset, q] pairs"),
    ("lowers", [[[0], "1"], "ab"], "admissible: payload.lowers[1] must be a [subset, q] "
     "pair, got 'ab'"),
    ("uppers", [[[0], "1", "2"]], "admissible: payload.uppers[0] must be a [subset, q] "
     "pair, got [[0], '1', '2']"),
    ("uppers", [{"s": [0], "q": "1"}], "admissible: payload.uppers[0] must be a [subset, q] "
     "pair, got {'s': [0], 'q': '1'}"),
])
def test_admissible_sides_that_are_no_pair_lists_are_named(capsys, side, value, message):
    payload = json.dumps({"n": 2, side: value})
    assert run_cli(capsys, "admissible", payload) == (2, {"error": message})
