import json

import pytest

from tamari.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_b(capsys):
    code, out, _ = run(capsys, "count", "--type", "b", "--n", "3")
    assert code == 0 and out.strip() == "20"


def test_count_a_and_bds(capsys):
    code, out, _ = run(capsys, "count", "--type", "a", "--n", "4")
    assert code == 0 and out.strip() == "42"
    code, out, _ = run(capsys, "count", "--type", "bds", "--n", "3", "--s", "3")
    assert code == 0 and int(out) == 18  # exactly (0,0,2) and (0,1,2) drop out


def test_decode_figure2_and_psi(capsys):
    code, out, _ = run(
        capsys, "decode", "--type", "b", "--n", "6", "--vector", '[0,"inf",0,0,2,0]'
    )
    assert code == 0
    tri = json.loads(out)
    assert ["2", "-2"] in tri["chords"]
    code, out, _ = run(
        capsys, "psi", "--type", "b", "--n", "6", "--vector", '[0,"inf",0,0,2,0]'
    )
    assert code == 0
    assert json.loads(out)["blocks"] == [
        ["1", "-2", "-5", "-6"],
        ["2", "5", "6", "-1"],
        ["3", "4"],
        ["-3", "-4"],
    ]


def test_encode_round_trip(capsys):
    code, tri, _ = run(capsys, "decode", "--n", "3", "--vector", '[0,1,0]')
    assert code == 0
    code, vec, _ = run(capsys, "encode", "--triangulation", tri.strip())
    assert code == 0 and json.loads(vec) == [0, 1, 0]


def test_meet_join(capsys):
    code, out, _ = run(capsys, "join", "--n", "3", "--vector", "[0,1,0]", "--other", "[0,0,1]")
    assert code == 0 and json.loads(out) == [0, 1, 2]
    code, out, _ = run(
        capsys, "join", "--type", "bds", "--n", "3", "--s", "3",
        "--vector", "[0,1,0]", "--other", "[0,0,1]",
    )
    assert code == 0 and json.loads(out) == [0, 1, "inf"]
    code, out, _ = run(capsys, "meet", "--n", "3", "--vector", "[0,1,0]", "--other", "[0,0,1]")
    assert code == 0 and json.loads(out) == [0, 0, 0]


def test_covers(capsys):
    code, out, _ = run(capsys, "covers", "--n", "3", "--vector", "[0,0,0]")
    assert code == 0
    got = [json.loads(line) for line in out.strip().splitlines()]
    assert sorted(map(str, got)) == sorted(
        map(str, [["inf", 0, 0], [0, 1, 0], [0, 0, 1]])
    )
    code, out, _ = run(
        capsys, "covers", "--n", "3", "--vector", "[0,0,0]", "--other", '["inf",0,0]'
    )
    assert code == 0 and json.loads(out) is True


def test_psi_inv(capsys):
    partition = json.dumps(
        {"n": 6, "blocks": [["1", "-2", "-5", "-6"], ["3", "4"], ["-1", "2", "5", "6"], ["-3", "-4"]]}
    )
    code, out, _ = run(capsys, "psi-inv", "--partition", partition)
    assert code == 0
    assert json.loads(out)["vector"] == [0, "inf", 0, 0, 2, 0]


def test_mobius(capsys):
    code, out, _ = run(
        capsys, "mobius", "--n", "3", "--vector", "[0,0,0]", "--other", "[0,0,1]"
    )
    assert code == 0
    data = json.loads(out)
    assert data["mobius"] == -1 and data["homotopy"] == "sphere(-1)"


def test_hasse_small_chain(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 2 and len(data["edges"]) == 1
    assert data["edges"][0]["label"] == "W1,inf"


def test_hasse_n3_counts_and_determinism(capsys):
    code, out1, _ = run(capsys, "hasse", "--n", "3", "--format", "dot")
    assert code == 0
    code, out2, _ = run(capsys, "hasse", "--n", "3", "--format", "dot")
    assert out1 == out2
    data = json.loads(run(capsys, "hasse", "--n", "3")[1])
    assert len(data["nodes"]) == 20
    assert len(data["edges"]) == 30  # exhaustive cover count, pinned


def test_hasse_cap(capsys):
    code, _, err = run(capsys, "hasse", "--n", "7")
    assert code == 1 and "cap" in err
    # the override flag lifts it (n=5 is fine but above the check if cap lowered)
    code, _, _ = run(capsys, "hasse", "--n", "2", "--max-n-unsafe", "2")
    assert code == 0


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 6 and rows[0] == "0,0"


def test_out_file(tmp_path, capsys):
    dst = tmp_path / "hasse.dot"
    code, out, _ = run(capsys, "hasse", "--n", "1", "--format", "dot", "--out", str(dst))
    assert code == 0 and out == ""
    assert dst.read_text().startswith("digraph")


def test_error_paths(capsys):
    code, _, err = run(capsys, "decode", "--n", "3", "--vector", "[0,1")
    assert code == 1 and "malformed JSON" in err
    code, _, err = run(capsys, "decode", "--n", "3", "--vector", "[1,0,0]")
    assert code == 1 and "invalid bracket vector" in err
    code, _, err = run(capsys, "count", "--type", "b", "--n", "3", "--s", "1")
    assert code == 1 and "--s" in err
    code, _, err = run(capsys, "count", "--type", "b", "--n", "0")
    assert code == 1
    code, _, err = run(capsys, "psi-inv", "--partition", '{"n": 2, "blocks": [["1","2"],["-1"],["-2"]]}')
    assert code == 1 and "invalid partition" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "el", "--type", "bds", "--n", "3", "--s", "3")
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run(capsys, "verify", "lattice", "--n", "2")
    assert code == 0
    code, out, _ = run(capsys, "verify", "covers", "--type", "a", "--n", "3")
    assert code == 0
    # the congruence suite hits the documented meet erratum (see README)
    code, out, _ = run(capsys, "verify", "congruence", "--type", "bds", "--n", "2", "--s", "1")
    assert code == 2
    report = json.loads(out)
    assert any("meet congruence" in f for f in report["failures"])
    assert not any("join congruence" in f for f in report["failures"])


@pytest.mark.parametrize(
    "partition", ['{"n": 2}', "[1]", '{"n": 2, "blocks": 5}', '{"n": 2, "blocks": [5]}']
)
def test_psi_inv_malformed_partition(capsys, partition):
    code, out, err = run(capsys, "psi-inv", "--partition", partition)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "invalid partition" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["meet", "join", "mobius"])
@pytest.mark.parametrize("first", [True, False])
def test_pair_commands_outside_tns(capsys, command, first):
    bad, member = "[0,0,2]", "[0,0,0]"
    pair = ["--vector", bad, "--other", member] if first else ["--vector", member, "--other", bad]
    code, out, err = run(capsys, command, "--type", "bds", "--n", "3", "--s", "3", *pair)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "not in T_n^S" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("other", [[], ["--other", '[0,0,"inf"]']])
def test_covers_outside_tns(capsys, other):
    argv = ["covers", "--type", "bds", "--n", "3", "--s", "3", "--vector", "[0,0,2]"]
    code, out, err = run(capsys, *argv, *other)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "not in T_n^S" in err
    assert "Traceback" not in err
