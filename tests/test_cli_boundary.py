"""The CLI's input boundary: one error line instead of a traceback, size caps,
closed-form counts, a quiet exit on a closed pipe, and a lazy numpy import."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tamari
from tamari import bracket_b as bb
from tamari import kinds
from tamari import noncross as nc
from tamari import tamari_a as ta
from tamari.cli import main
from tamari.kinds import MAX_ELEMENTS, lattice_kind
from tamari.verify import SUITES

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    """(exit status, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # --help
            code = e.code
    return code, out.getvalue(), err.getvalue()


def python(*args, **kwargs):
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--n", "3", "--vector", "5"],
        ["psi", "--type", "a", "--n", "2", "--vector", "7"],
        ["decode", "--n", "3", "--vector", "null"],
        ["decode", "--n", "3", "--vector", "[5,0,0]"],
        ["decode", "--type", "a", "--n", "2", "--vector", '[0,"x",0]'],
        ["meet", "--type", "a", "--n", "2", "--vector", "[0,0,0]", "--other", "[0,1]"],
        ["encode", "--triangulation", '{"n":3}'],
        ["encode", "--triangulation", "[1]"],
        ["encode", "--triangulation", "null"],
        ["encode", "--type", "a", "--triangulation", '{"n": 2, "chords": [5]}'],
        ["decode", "--n", "3", "--vector", "[" * 100_000],
        ["decode", "--n", "3", "--vector", '"a\\nb"'],
        ["meet", "--type", "a", "--n", "2", "--vector", "[false,false,false]", "--other", "[0,0,0]"],
        ["psi-inv", "--partition", '{"n": true, "blocks": [["1"],["-1"]]}'],
        ["psi-inv", "--partition", '{"n": 1.9, "blocks": [[1.5],["-1"]]}'],
        ["psi-inv", "--partition", '{"n": 1, "blocks": [[1.0],["-1"]]}'],
        ["encode", "--type", "a", "--triangulation", '{"n": 1.9, "chords": [[0, 2]]}'],
        ["encode", "--type", "a", "--triangulation", '{"n": 1, "chords": [[0.5, 2]]}'],
        ["encode", "--type", "a", "--triangulation", '{"n": true, "chords": [[0, 2]]}'],
        ["encode", "--triangulation", '{"n": 2.7, "chords": [[1, -1], [1, -2], [-1, 2]]}'],
        ["enumerate", "--n", "2", "--format", "dot"],
        # a bad command line: argparse's error, not its usage text and exit 2
        ["verify", "bogus", "--n", "2"],
        ["count", "--n", "x"],
        ["decode", "--n", "3"],
        ["count", "--n", "2", "--bogus"],
        [],
    ],
)
def test_malformed_input_is_one_error_line(argv):
    code, out, err = run(*argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_still_exits_zero():
    for argv in (["--help"], ["decode", "--help"]):
        code, out, err = run(*argv)
        assert code == 0 and out.startswith("usage: tamari") and err == ""


@pytest.mark.parametrize(
    "argv, line",
    [
        (["decode", "--n", "3", "--vector", '["inf", 1, 2]'],
         "error: invalid bracket vector ['inf', 1, 2]: condition i at (1, 2)"),
        (["decode", "--n", "6", "--vector", "[0, 0, 3, 0, 4, 5]"],
         "error: invalid bracket vector [0, 0, 3, 0, 4, 5]: condition i at (3, 5)"),
        (["psi", "--n", "5", "--vector", '[0, 0, 2, "inf", 1]'],
         "error: invalid bracket vector [0, 0, 2, 'inf', 1]: condition i at (4, 5)"),
        (["encode", "--triangulation",
          '{"n": 3, "chords": [[1, 3], [2, 4], [-1, -3], [-2, -4], [4, -4]]}'],
         "error: invalid triangulation: chords (4, 6) and (5, 7) cross"),
        (["encode", "--type", "a", "--triangulation", '{"n": 3, "chords": [[0, 2], [1, 3], [3, 5]]}'],
         "error: invalid triangulation: chords (0, 2) and (1, 3) cross"),
    ],
)
def test_witness_error_lines_are_pinned(argv, line):
    """Validity is decided by single passes; the pair named is still the
    pair scan's first, so these lines stay as they were."""
    assert run(*argv) == (1, "", line + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--type", "a", "--triangulation", '{"n": -1, "chords": []}'],
        ["encode", "--type", "a", "--triangulation", '{"n": 0, "chords": []}'],
        ["encode", "--triangulation", '{"n": -1, "chords": []}'],
        ["encode", "--triangulation", '{"n": 0, "chords": []}'],
        ["encode", "--type", "bds", "--s", "1", "--triangulation", '{"n": 0, "chords": []}'],
        ["psi-inv", "--partition", '{"n": 0, "blocks": []}'],
        ["psi-inv", "--partition", '{"n": "-2", "blocks": []}'],
    ],
)
def test_json_size_below_one_is_refused(argv):
    code, out, err = run(*argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "n must be at least 1" in err


def test_count_closed_form():
    assert run("count", "--n", "30")[1] == "118264581564861424\n"  # C(60, 30)
    assert run("count", "--type", "a", "--n", "30")[1] == f"{ta.catalan(31)}\n"
    bds = run("count", "--type", "bds", "--n", "30", "--s", "1,2")[1]
    assert bds == f"{118264581564861424 - 2 * ta.catalan(29)}\n"
    for argv in (["count", "--n", "100000"], ["count", "--type", "bds", "--n", "5001", "--s", "1"]):
        code, out, err = run(*argv)
        assert code == 1 and out == "" and "cap" in err, argv


def test_enumerate_and_verify_refuse_above_the_cap():
    for argv in (
        ["enumerate", "--n", "30"],
        ["enumerate", "--n", "12"],  # C(24, 12) = 2,704,156
        ["enumerate", "--type", "a", "--n", "13"],  # Catalan(14) = 2,674,440
        ["enumerate", "--type", "bds", "--n", "12", "--s", "1"],  # 2,645,370
        *(
            ["verify", *suite, "--n", "12", "--max-n-unsafe", "12"]
            for suite in (["leftmod"], ["el"], ["congruence", "--type", "bds", "--s", "1"])
        ),
    ):
        code, out, err = run(*argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and f"more than {MAX_ELEMENTS}" in err, argv


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_refuses_a_lattice_above_the_element_cap(monkeypatch, suite):
    monkeypatch.setattr(kinds, "MAX_ELEMENTS", 10)
    for kind in ("a", "b", "bds"):
        if suite not in lattice_kind(kind, 4).suites:
            continue
        code, out, err = run("verify", suite, "--type", kind, "--n", "4")
        assert code == 1 and out == "", kind
        assert err == "error: n=4: more than 10 elements, the enumeration cap\n", kind


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "congruence", "--n", "3"], "suite congruence applies to type bds only"),
        (["verify", "el", "--type", "a", "--n", "3"], "suite el applies to types b and bds only"),
        (
            ["mobius", "--type", "a", "--n", "2", "--vector", "[0,0,0]", "--other", "[0,1,2]"],
            "mobius is implemented for types b and bds only",
        ),
        (
            ["psi-inv", "--type", "a", "--partition", "{}"],
            "psi-inv is implemented for types b and bds only",
        ),
    ],
    ids=["congruence-b", "el-a", "mobius-a", "psi-inv-a"],
)
def test_a_kind_refuses_what_it_lacks(argv, message):
    assert run(*argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("chord", [[0], [0, 2, 5]])
@pytest.mark.parametrize("kind", ["a", "b"])
def test_a_chord_needs_two_endpoints(kind, chord):
    tri = json.dumps({"n": 2, "chords": [chord, [0, 3]]})
    code, out, err = run("encode", "--type", kind, "--triangulation", tri)
    assert (code, out) == (1, "")
    assert err == f"error: invalid triangulation: chord must have two endpoints, got {chord}\n"


def test_every_suite_refuses_n_above_the_cap():
    for argv in (
        ["verify", "leftmod", "--type", "bds", "--n", "7", "--s", "1"],
        ["verify", "lattice", "--n", "7"],
    ):
        code, out, err = run(*argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and "exceeds the cap 6" in err, argv


def test_type_a_upper_covers_match_the_cover_relation():
    for n in range(1, 6):
        kind = lattice_kind("a", n)
        vecs = ta.enumerate_a(n)
        tris = {v: ta.decode_a(v, n) for v in vecs}
        for v in vecs:
            ups = ta.green_flips_a(tris[v])
            assert kind.upper_covers(v) == [w for w in vecs if tris[w] in ups]


def test_top_element_commands_at_n_1200_answer():
    """decode and psi of the top element, types b and a, and psi-inv of the
    all-singletons partition at n = 1200 exit 0 with nothing on stderr: no
    step recurses once per nested chord."""
    n = 1200
    top_b, top_a = json.dumps(["inf"] * n), json.dumps(list(range(n + 1)))
    labels = [*range(1, n + 1), *range(-1, -n - 1, -1)]
    singles = json.dumps({"n": n, "blocks": [[str(x)] for x in labels]})
    answers = {}
    for argv in (
        ["decode", "--n", str(n), "--vector", top_b],
        ["psi", "--n", str(n), "--vector", top_b],
        ["decode", "--type", "a", "--n", str(n), "--vector", top_a],
        ["psi", "--type", "a", "--n", str(n), "--vector", top_a],
        ["psi-inv", "--partition", singles],
    ):
        code, out, err = run(*argv)
        assert (code, err) == (0, ""), argv[:3]
        answers[tuple(argv[:3])] = json.loads(out)
    assert answers[("psi-inv", "--partition", singles)]["triangulation"] == answers[
        ("decode", "--n", str(n))
    ]
    assert answers[("psi", "--n", str(n))]["blocks"] == [[str(x)] for x in labels]


def test_closed_pipe_exits_quietly():
    proc = python(
        "-m", "tamari", "enumerate", "--n", "8", stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"[0, 0, 0, 0, 0, 0, 0, 0]\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err and err == b""


def test_cli_import_does_not_load_numpy():
    proc = python("-c", "import tamari, tamari.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.wait() == 0


def test_finite_poset_still_importable_from_package():
    from tamari import FinitePoset

    po = FinitePoset.build([0, 1], lambda a, b: a <= b)
    assert po.leq.tolist() == [[True, True], [False, True]]


def test_every_export_resolves():
    """`from tamari import *` binds every name of `tamari.__all__`."""
    scope: dict = {}
    exec("from tamari import *", scope)
    assert all(name in scope for name in tamari.__all__)


# -- fuzzing the whole command line ------------------------------------------------

VALID_VECTORS = [
    json.dumps(bb.vector_to_json(v)) for n in (1, 2, 3) for v in bb.enumerate_vectors(n)
]
VALID_VECTORS += [json.dumps(list(v)) for n in (1, 2, 3) for v in ta.enumerate_a(n)]
SOME_B = bb.enumerate_vectors(3)[::4]
VALID_TRIANGULATIONS = [json.dumps(bb.decode(v, 3).to_json()) for v in SOME_B]
VALID_TRIANGULATIONS += [json.dumps(ta.decode_a(v, 3).to_json()) for v in ta.enumerate_a(3)[::4]]
VALID_PARTITIONS = [json.dumps(nc.psi(bb.decode(v, 3)).to_json()) for v in SOME_B]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False)
    | st.sampled_from(["inf", "1", "-1", "x", "n"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "chords", "blocks", "x"]), inner, max_size=3),
    max_leaves=12,
)


def payloads(valid):
    return st.one_of(st.sampled_from(valid), json_values.map(json.dumps), st.text(max_size=12))


@st.composite
def command_lines(draw):
    command = draw(
        st.sampled_from(
            ["count", "enumerate", "encode", "decode", "meet", "join", "covers", "psi",
             "psi-inv", "mobius", "hasse", "verify"]
        )
    )
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(SUITES)))
    argv += ["--type", draw(st.sampled_from(["a", "b", "bds"]))]
    if command not in ("encode", "psi-inv"):
        # exhaustive suites and Hasse diagrams stay small
        argv += ["--n", str(draw(st.integers(-1, 3 if command in ("verify", "hasse") else 5)))]
    if draw(st.booleans()):
        s_texts = st.sampled_from(["1", "1,3", "2", "", "0", "9", "x"]) | st.text(max_size=5)
        argv += ["--s", draw(s_texts)]
    if command in ("decode", "meet", "join", "covers", "psi", "mobius"):
        argv += ["--vector", draw(payloads(VALID_VECTORS))]
    if command in ("meet", "join", "mobius") or (command == "covers" and draw(st.booleans())):
        argv += ["--other", draw(payloads(VALID_VECTORS))]
    if command == "encode":
        argv += ["--triangulation", draw(payloads(VALID_TRIANGULATIONS))]
    if command == "psi-inv":
        argv += ["--partition", draw(payloads(VALID_PARTITIONS))]
    if command in ("enumerate", "hasse"):
        argv += ["--format", draw(st.sampled_from(["json", "dot", "csv"]))]
    return argv


@given(command_lines())
def test_fuzzed_command_lines_never_escape_main(argv):
    code, out, err = run(*argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert len(err.splitlines()) == 1, (argv, err)
    assert run(*argv)[1] == out, argv
