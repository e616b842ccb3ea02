from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathbetti
from pathbetti import (
    BettiTable,
    formula_betti_table,
    graded_betti_table,
    graph_from_edges,
    path_ideal,
    standard_graph,
)
from pathbetti.cli import EXIT_MISMATCH, EXIT_OK, EXIT_SIZE, EXIT_USAGE, main


def run_cli(capsys, *argv: str):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def ex_file(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [3, 4]]}))
    return str(path)


def test_betti_json_exact(capsys):
    rc, out, _ = run_cli(capsys, "betti", "--star", "3", "--t", "2", "--format", "json")
    assert rc == EXIT_OK
    assert out == (
        '{"entries":[{"i":0,"j":0,"b":1},{"i":1,"j":2,"b":3},'
        '{"i":2,"j":3,"b":3},{"i":3,"j":4,"b":1}]}\n'
    )


def test_betti_table_golden(capsys):
    rc, out, _ = run_cli(capsys, "betti", "--line", "4", "--t", "2")
    assert rc == EXIT_OK
    assert out == (
        "Betti numbers of S/I_2(L_4)\n"
        "i\\j 0 1 2 3\n"
        "  0 1 . . .\n"
        "  1 . . 3 .\n"
        "  2 . . . 2\n"
    )


def test_betti_csv_golden(capsys):
    rc, out, _ = run_cli(capsys, "betti", "--line", "4", "--t", "2", "--format", "csv")
    assert rc == EXIT_OK
    assert out == "i,j,b\n0,0,1\n1,2,3\n2,3,2\n"


def _parse_entries(payload: str) -> dict[tuple[int, int], int]:
    data = json.loads(payload)
    return {(e["i"], e["j"]): e["b"] for e in data["entries"]}


def test_betti_json_round_trip(capsys, ex_file):
    cases = [
        (["--line", "5"], standard_graph("line", 5), "2"),
        (["--cycle", "5"], standard_graph("cycle", 5), "2"),
        (["--star", "3"], standard_graph("star", 3), "3"),
        (["--edges", ex_file], graph_from_edges(4, [[1, 2], [1, 3], [1, 4], [3, 4]]), "3"),
    ]
    for flags, G, t in cases:
        rc, out, _ = run_cli(capsys, "betti", *flags, "--t", t, "--format", "json")
        assert rc == EXIT_OK
        assert _parse_entries(out) == graded_betti_table(G, int(t)).as_dict()


def test_betti_formula_method_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys, "betti", "--line", "6", "--t", "2", "--method", "formula",
        "--format", "json",
    )
    assert rc == EXIT_OK
    assert _parse_entries(out) == formula_betti_table("line", 6, 2).table.as_dict()


def test_compare_match(capsys):
    rc, out, _ = run_cli(capsys, "compare", "--line", "5", "--t", "2")
    assert rc == EXIT_OK
    k = len(formula_betti_table("line", 5, 2).table.as_dict())
    assert out == f"MATCH ({k} entries)\n"
    rc, out, _ = run_cli(capsys, "compare", "--cycle", "6", "--t", "2")
    assert rc == EXIT_OK
    assert out == "MATCH (6 entries)\n"
    rc, out, _ = run_cli(capsys, "compare", "--star", "4", "--t", "3")
    assert rc == EXIT_OK
    assert out.startswith("MATCH (")


def test_compare_mismatch_reporting(capsys, monkeypatch):
    # force a disagreement to exercise the failure path; the real tables
    # never disagree
    import pathbetti.cli as cli_mod

    doctored = BettiTable.from_dict(4, {(0, 0): 1, (1, 2): 99})

    monkeypatch.setattr(cli_mod, "graded_betti_table", lambda *a, **k: doctored)
    rc, out, _ = run_cli(capsys, "compare", "--line", "4", "--t", "2")
    assert rc == EXIT_MISMATCH
    assert "(1,2): oracle=99 formula=3" in out
    assert "(2,3): oracle=0 formula=2" in out
    assert out.rstrip().endswith("MISMATCH")


def test_omega_outputs(capsys):
    rc, out, _ = run_cli(capsys, "omega", "--n", "5", "--t", "2", "--method", "both")
    assert rc == EXIT_OK
    assert out == "p=1: 1 (oracle) / 1 (formula) MATCH\n"
    rc, out, _ = run_cli(capsys, "omega", "--n", "4", "--t", "2", "--method", "both")
    assert (rc, out) == (EXIT_OK, "all zero, MATCH\n")
    rc, out, _ = run_cli(capsys, "omega", "--n", "2", "--t", "2", "--method", "oracle")
    assert (rc, out) == (EXIT_OK, "p=-1: 1\n")
    rc, out, _ = run_cli(capsys, "omega", "--n", "9", "--t", "3", "--method", "formula")
    assert rc == EXIT_OK


def test_paths_outputs(capsys, ex_file):
    rc, out, _ = run_cli(capsys, "paths", "--edges", ex_file, "--t", "3")
    assert rc == EXIT_OK
    assert out == "1,2,3\n1,2,4\n1,3,4\n3 generators\n"
    rc, out, _ = run_cli(capsys, "paths", "--line", "2", "--t", "2")
    assert (rc, out) == (EXIT_OK, "1,2\n1 generator\n")
    rc, out, _ = run_cli(capsys, "paths", "--line", "2", "--t", "3")
    assert (rc, out) == (EXIT_OK, "0 generators\n")


def test_homology_text(capsys):
    rc, out, _ = run_cli(capsys, "homology", "--line", "6", "--t", "2")
    assert rc == EXIT_OK
    assert out == (
        "generators: 5\n"
        "lcm support: 1,2,3,4,5,6\n"
        "reduced homology of the strict Taylor subcomplex over GF(32003):\n"
        "  p=2: 1\n"
        "top multidegree Betti numbers (j=6):\n"
        "  b_4 = 1\n"
    )


def test_homology_json(capsys):
    rc, out, _ = run_cli(capsys, "homology", "--line", "6", "--t", "2", "--format", "json")
    assert rc == EXIT_OK
    data = json.loads(out)
    assert data == {
        "generators": 5,
        "lcm": [1, 2, 3, 4, 5, 6],
        "dims": [{"p": 2, "dim": 1}],
        "betti": [{"i": 4, "b": 1}],
    }


def test_usage_errors(capsys, tmp_path):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"n": 2, "edges": [[1, 1]]}))
    cases = [
        ("betti", "--line", "4"),
        ("betti", "--line", "3", "--cycle", "4", "--t", "2"),
        ("betti", "--star", "4", "--t", "4", "--method", "formula"),
        ("betti", "--edges", str(loop), "--t", "2"),
        ("betti", "--line", "4", "--t", "2", "--prime", "9"),
        ("betti", "--line", "4", "--t", "0"),
        ("omega", "--n", "2", "--t", "3"),
        ("compare", "--line", "4", "--t", "1"),
        ("homology", "--line", "4", "--t", "2", "--format", "csv"),
        ("betti", "--edges", str(tmp_path / "missing.json"), "--t", "2"),
        ("nosuchcommand",),
    ]
    for argv in cases:
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == EXIT_USAGE, argv


def test_formula_method_needs_named_family(capsys, ex_file):
    rc, _, err = run_cli(
        capsys, "betti", "--edges", ex_file, "--t", "2", "--method", "formula"
    )
    assert rc == EXIT_USAGE
    assert "named family" in err


def test_size_cap_exit(capsys, tmp_path):
    k7 = tmp_path / "k7.json"
    edges = [[a, b] for a in range(1, 8) for b in range(a + 1, 8)]
    k7.write_text(json.dumps({"n": 7, "edges": edges}))
    rc, _, err = run_cli(capsys, "betti", "--edges", str(k7), "--t", "2")
    assert rc == EXIT_SIZE
    assert "cap" in err
    # the walk reaches the full support, whose complex is over the face cap
    assert "multidegree 1,2,3,4,5,6,7:" in err


def test_homology_cap_names_multidegree(capsys, tmp_path, monkeypatch):
    from pathbetti import complexes, homology

    # a 64-face cap trips on K_7's top complex at once
    monkeypatch.setattr(homology, "faces_by_dim", lambda K, cap: complexes.faces_by_dim(K, cap=64))
    k7 = tmp_path / "k7.json"
    edges = [[a, b] for a in range(1, 8) for b in range(a + 1, 8)]
    k7.write_text(json.dumps({"n": 7, "edges": edges}))
    rc, out, err = run_cli(capsys, "homology", "--edges", str(k7), "--t", "2")
    assert (rc, out) == (EXIT_SIZE, "")
    assert "multidegree 1,2,3,4,5,6,7: complex exceeds the 64 face cap" in err


def test_huge_vertex_count_is_usage_error(capsys, tmp_path):
    from pathbetti.graphs import MAX_VERTICES

    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**9, "edges": []}))
    rc, out, err = run_cli(capsys, "betti", "--edges", str(huge), "--t", "2")
    assert (rc, out) == (EXIT_USAGE, "")
    assert f"n=1000000000 exceeds the limit of {MAX_VERTICES}" in err


@pytest.mark.parametrize(
    "payload, named",
    [
        ('{"n": 3, "edges": 5}', "5"),
        ('{"n": 3, "edges": null}', "None"),
        ('{"n": 3, "edges": [5]}', "edge 5 "),
        ('{"n": 3, "edges": [[1, "a"]]}', "[1, 'a']"),
        ('{"n": 3, "edges": [[1.5, 2]]}', "[1.5, 2]"),
        ('{"n": 3, "edges": [[true, 2]]}', "[True, 2]"),
        ("5", "got 5"),
    ],
)
def test_malformed_edges_file_is_usage_error(capsys, tmp_path, payload, named):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    rc, out, err = run_cli(capsys, "betti", "--edges", str(bad), "--t", "2")
    assert (rc, out) == (EXIT_USAGE, "")
    assert named in err
    assert "Traceback" not in err


def test_omega_oracle_cap_checked_before_building(capsys, monkeypatch):
    import pathbetti.cli as cli_mod

    def refuse(n, t):
        raise AssertionError("omega_complex called")

    monkeypatch.setattr(cli_mod, "omega_complex", refuse)
    rc, out, err = run_cli(capsys, "omega", "--n", "100000", "--t", "2", "--method", "oracle")
    assert (rc, out) == (EXIT_SIZE, "")
    assert "n=100000" in err
    # the formula route needs no complex
    rc, out, _ = run_cli(capsys, "omega", "--n", "100000", "--t", "2", "--method", "formula")
    assert rc == EXIT_OK


def test_huge_family_size_is_usage_error(capsys):
    from pathbetti.graphs import MAX_VERTICES

    for family in ("--line", "--cycle", "--star"):
        rc, out, err = run_cli(capsys, "betti", family, "5000", "--t", "2")
        assert (rc, out) == (EXIT_USAGE, ""), family
        assert f"n=5000 exceeds the limit of {MAX_VERTICES}" in err


def test_prime_flag(capsys):
    rc, a, _ = run_cli(capsys, "betti", "--cycle", "5", "--t", "2", "--format", "json")
    rc2, b, _ = run_cli(
        capsys, "betti", "--cycle", "5", "--t", "2", "--prime", "2", "--format", "json"
    )
    assert rc == rc2 == EXIT_OK
    assert a == b


def test_memo_flag_equal_output(capsys):
    rc, a, _ = run_cli(capsys, "betti", "--line", "6", "--t", "2", "--format", "json")
    rc2, b, _ = run_cli(capsys, "betti", "--line", "6", "--t", "2", "--memo", "--format", "json")
    assert rc == rc2 == EXIT_OK
    assert a == b


def test_memo_help_on_both_subcommands(capsys):
    for command in ("betti", "compare"):
        rc, out, _ = run_cli(capsys, command, "--help")
        assert rc == EXIT_OK
        assert "--memo cache per isomorphism class of each connected component of G_W" in " ".join(out.split())


def test_deterministic_output(capsys, ex_file):
    for argv in (
        ["betti", "--edges", ex_file, "--t", "2", "--format", "json"],
        ["homology", "--cycle", "6", "--t", "2", "--format", "json"],
        ["paths", "--edges", ex_file, "--t", "3"],
    ):
        rc1, a, _ = run_cli(capsys, *argv)
        rc2, b, _ = run_cli(capsys, *argv)
        assert rc1 == rc2 == EXIT_OK
        assert a == b


def test_module_entrypoint_subprocess():
    # the child imports the same package as this process, installed or not
    src = str(Path(pathbetti.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run(
        [sys.executable, "-m", "pathbetti", "betti", "--line", "4", "--t", "2", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0
    assert r.stdout == '{"entries":[{"i":0,"j":0,"b":1},{"i":1,"j":2,"b":3},{"i":2,"j":3,"b":2}]}\n'
    r2 = subprocess.run(
        [sys.executable, "-m", "pathbetti", "compare", "--line", "4", "--t", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r2.returncode == 0


def test_formula_cycle_table_has_top_degree(capsys):
    rc, out, _ = run_cli(
        capsys, "betti", "--cycle", "5", "--t", "2", "--method", "formula"
    )
    assert rc == EXIT_OK
    assert out == (
        "Betti numbers of S/I_2(C_5)\n"
        "i\\j 0 1 2 3 4 5\n"
        "  0 1 . . . . .\n"
        "  1 . . 5 . . .\n"
        "  2 . . . 5 . .\n"
        "  3 . . . . . 1\n"
    )
    assert "note" not in out
