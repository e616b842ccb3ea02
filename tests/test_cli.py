from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pathbetti
from pathbetti import (
    BettiTable,
    formula_betti_table,
    graded_betti_table,
    graph_from_edges,
    graph_from_json,
    path_ideal,
    standard_graph,
)
from pathbetti import cli
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


def test_text_table_is_written_row_by_row():
    table = BettiTable.from_dict({(0, 0): 1, (1, 2): 3, (2, 3): 12})
    rows = cli.render_table_text(table, "T")
    assert not isinstance(rows, str)
    assert next(rows) == "T"
    assert next(rows) == "i\\j  0  1  2  3"
    assert list(rows) == ["  0  1  .  .  .", "  1  .  .  3  .", "  2  .  .  . 12"]


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


def test_compare_match_one_entry(capsys):
    # no t-path, so the table holds only the unit entry (0, 0)
    for argv in (("--cycle", "3", "--t", "4"), ("--line", "1", "--t", "2")):
        rc, out, _ = run_cli(capsys, "compare", *argv)
        assert (rc, out) == (EXIT_OK, "MATCH (1 entry)\n"), argv


def test_compare_mismatch_reporting(capsys, monkeypatch):
    # force a disagreement to exercise the failure path; the real tables
    # never disagree
    import pathbetti.cli as cli_mod

    doctored = BettiTable.from_dict({(0, 0): 1, (1, 2): 99})

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
    from pathbetti.complexes import WORK_BUDGET

    c26 = tmp_path / "c26.json"
    c26.write_text(json.dumps({"n": 26, "edges": [[a, a % 26 + 1] for a in range(1, 27)]}))
    rc, out, err = run_cli(capsys, "betti", "--edges", str(c26), "--t", "2")
    assert (rc, out) == (EXIT_SIZE, "")
    # a cycle's relation has no dominated row or column, so nothing
    # collapses.  Δ_W of the whole cycle has L(26) = 271,443 faces, far
    # under half of 2^26, so it is the route, and the work budget ends it
    support = ",".join(map(str, range(1, 27)))
    assert re.search(rf"multidegree {support}: work count [0-9]+ exceeds the {WORK_BUDGET} work budget", err), err


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
        ('{"n": -1, "edges": []}', "n=-1"),
        ('{"n": "3", "edges": []}', "'3'"),
    ],
)
def test_malformed_edges_file_is_usage_error(capsys, tmp_path, payload, named):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    rc, out, err = run_cli(capsys, "betti", "--edges", str(bad), "--t", "2")
    assert (rc, out) == (EXIT_USAGE, "")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--line", "0", "--t", "2"), "n=0"),
        (("--cycle", "2", "--t", "2"), "n=2"),
        (("--star", "0", "--t", "2"), "n=0"),
        (("--line", "4", "--t", "0"), "t=0"),
    ],
)
def test_bad_size_or_t_is_usage_error_naming_the_value(capsys, argv, named):
    rc, out, err = run_cli(capsys, "betti", *argv)
    assert (rc, out) == (EXIT_USAGE, "")
    assert named in err


@pytest.mark.parametrize("payload, why", [(b"", "Expecting value"), (b"\xff\xfe", "can't decode byte 0xff")])
def test_unreadable_edges_file_is_named(capsys, tmp_path, payload, why):
    # an empty file reads like /dev/null; ff fe is a UTF-16 byte order mark
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    rc, out, err = run_cli(capsys, "betti", "--edges", str(bad), "--t", "2")
    assert (rc, out) == (EXIT_USAGE, "")
    assert f"error: {bad} is not valid UTF-8 JSON: " in err and why in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family", ["--line", "--star"])
def test_largest_family_exits_at_cap(capsys, family):
    # 2^4096 subsets for a walk; the recursion meets a capped support early
    rc, out, err = run_cli(capsys, "betti", family, "4096", "--t", "2")
    assert (rc, out) == (EXIT_SIZE, "")
    assert "multidegree" in err


@pytest.mark.parametrize("family, n, t", [("--cycle", "16", "2"), ("--line", "18", "3")])
def test_compare_matrices_past_dense_entry_cap(capsys, family, n, t):
    # boundary matrices beyond 2^25 cells, under the face cap: the sparse
    # reduction answers them (line 18, t=3 on the Taylor route; cycle 16,
    # t=2 now takes the 2,207-face Δ_W)
    rc, out, _ = run_cli(capsys, "compare", family, n, "--t", t)
    assert rc == EXIT_OK
    assert out.startswith("MATCH (")


def test_compare_past_face_cap_names_multidegree(capsys):
    from pathbetti.complexes import WORK_BUDGET

    # Δ_W of the whole cycle 24 has L(24) = 103,682 faces, past the old
    # 2^16 face cap; the work budget alone bounds it now
    rc, out, _ = run_cli(capsys, "compare", "--cycle", "24", "--t", "2")
    assert (rc, out) == (EXIT_OK, "MATCH (45 entries)\n")
    rc, out, err = run_cli(capsys, "compare", "--cycle", "26", "--t", "2")
    assert (rc, out) == (EXIT_SIZE, "")
    support = ",".join(map(str, range(1, 27)))
    assert re.search(rf"multidegree {support}: work count [0-9]+ exceeds the {WORK_BUDGET} work budget", err), err
    # the star with 17 leaves collapses to its leaves, each its own
    # generator, where Δ_W had 2^17 + 1 faces and K^W 2^17 - 1
    rc, out, _ = run_cli(capsys, "compare", "--star", "17", "--t", "2")
    assert (rc, out) == (EXIT_OK, "MATCH (18 entries)\n")


@pytest.mark.parametrize("n, t", [(100, 2), (100, 3), (100, 4), (100, 5), (57, 2), (83, 3), (41, 4), (64, 5)])
def test_compare_long_lines_match(capsys, n, t):
    # a line's relation collapses from both ends, so no line is over the
    # face cap; the work budget is what ends the longest ones
    rc, out, _ = run_cli(capsys, "compare", "--line", str(n), "--t", str(t))
    assert (rc, out[:7]) == (EXIT_OK, "MATCH ("), (n, t)


def _gnp_file(tmp_path, n: int, p: float):
    rng = random.Random(n)
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    path = tmp_path / f"g{n}.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    return str(path)


@pytest.mark.parametrize(
    "graph, t",
    [
        pytest.param(("--line", "4096"), 2, id="line-4096-t2"),
        pytest.param(("--star", "4096"), 2, id="star-4096-t2"),
        pytest.param(("--line", "4096"), 1, id="line-4096-t1"),
        pytest.param(("--cycle", "4096"), 1, id="cycle-4096-t1"),
        pytest.param(None, 2, id="gnp-22-t2"),
    ],
)
def test_work_budget_exit(capsys, tmp_path, graph, t):
    # one counter of states, polymer frames, polymer orders, domination
    # tests, faces and table products ends each run
    from pathbetti.complexes import WORK_BUDGET

    argv = graph or ("--edges", _gnp_file(tmp_path, 22, 0.5))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "betti", *argv, "--t", str(t))
    assert (rc, out) == (EXIT_SIZE, "")
    assert re.search(rf"multidegree [0-9,]+: work count [0-9]+ exceeds the {WORK_BUDGET} work budget", err), err
    assert time.perf_counter() - start < 30.0


def test_budget_overshoot_is_one_face(capsys, tmp_path):
    # faces are charged as they grow, each |C| <= 22 steps, so the count
    # stops within one face's charge of the budget
    from pathbetti.complexes import WORK_BUDGET

    rc, out, err = run_cli(capsys, "betti", "--edges", _gnp_file(tmp_path, 22, 0.5), "--t", "2")
    assert (rc, out) == (EXIT_SIZE, "")
    count = int(re.search(r"work count ([0-9]+) exceeds", err).group(1))
    assert WORK_BUDGET < count <= WORK_BUDGET + 22, err


@pytest.mark.parametrize("command", ["paths", "betti", "homology"])
def test_path_search_exits_at_budget(capsys, tmp_path, command):
    # K_16 has 5.2e8 simple paths on 8 vertices for 12,870 supports
    from pathbetti.complexes import WORK_BUDGET

    k16 = tmp_path / "k16.json"
    k16.write_text(json.dumps({"n": 16, "edges": [[a, b] for a in range(1, 17) for b in range(a + 1, 17)]}))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, command, "--edges", str(k16), "--t", "8")
    assert (rc, out) == (EXIT_SIZE, "")
    assert "n=16, t=8: work count" in err and f"exceeds the {WORK_BUDGET} work budget" in err, err
    assert time.perf_counter() - start < 5.0


def test_parser_built_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    bad = ("betti", "--line", "4", "--t", "2", "--format", "xml")
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    fresh = run_cli(capsys, *bad)
    monkeypatch.setattr(cli, "_parser", None)
    built.clear()
    assert run_cli(capsys, "betti", "--line", "4", "--t", "2")[0] == EXIT_OK
    again = run_cli(capsys, *bad)
    assert built == [1]
    assert again == fresh and fresh[0] == EXIT_USAGE and "invalid choice: 'xml'" in fresh[2]


def test_paths_longer_than_recursion_limit(capsys):
    rc, out, _ = run_cli(capsys, "paths", "--line", "1200", "--t", "1100")
    assert rc == EXIT_OK
    assert out.splitlines()[-1] == "101 generators"


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


def test_omega_oracle_cap_names_n_and_t(capsys):
    # one facet fits under the face cap; the whole complex does not
    rc, out, err = run_cli(capsys, "omega", "--n", "22", "--t", "6", "--method", "oracle")
    assert (rc, out) == (EXIT_SIZE, "")
    assert "omega n=22, t=6: complex exceeds the 65536 face cap" in err


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
        assert "--memo accepted for compatibility, no effect: the isomorphism cache is always on" in " ".join(
            out.split()
        )


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


def test_prime_bound_checked_before_trial_division(capsys):
    # 2^61 - 1 is prime: trial division up to its square root would run for hours
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "betti", "--line", "4", "--t", "2", "--prime", "2305843009213693951")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "2305843009213693951" in err
    assert time.perf_counter() - start < 1.0


def test_omega_oracle_vertex_limit(capsys, monkeypatch):
    from pathbetti.graphs import MAX_VERTICES

    def refuse(n, t):
        raise AssertionError("omega_complex called")

    # n - t = 10 passes the face-cap check; n itself is over the limit
    monkeypatch.setattr(cli, "omega_complex", refuse)
    for method in ("oracle", "both"):
        rc, out, err = run_cli(capsys, "omega", "--n", "5000", "--t", "4990", "--method", method)
        assert (rc, out) == (EXIT_USAGE, ""), method
        assert f"n=5000 exceeds the limit of {MAX_VERTICES}" in err
    # the formula route is O(1) and stays unbounded
    rc, out, _ = run_cli(capsys, "omega", "--n", "5000", "--t", "4990", "--method", "formula")
    assert (rc, out) == (EXIT_OK, "all zero\n")


def test_homology_cap_checked_before_taylor(capsys, monkeypatch):
    from pathbetti import betti

    def refuse(I, m):
        raise AssertionError("taylor_strict_sub called")

    # vertex 1 is avoided by 4,094 generators, so its facet alone is over the cap
    monkeypatch.setattr(betti, "taylor_strict_sub", refuse)
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "homology", "--line", "4096", "--t", "2")
    assert (rc, out) == (EXIT_SIZE, "")
    support = ",".join(map(str, range(1, 4097)))
    assert f"multidegree {support}: complex exceeds the 65536 face cap" in err
    assert time.perf_counter() - start < 2.0


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, expected stdout) for each `$ pathbetti ...` sh block of README.md."""
    blocks = README.read_text(encoding="utf-8").split("```sh\n")[1:]
    out = []
    for block in (b.split("```", 1)[0] for b in blocks):
        first, _, rest = block.partition("\n")
        if first.startswith("$ pathbetti "):
            out.append((first.split()[2:], rest))
    return out


def test_readme_examples(capsys, monkeypatch):
    # example paths are relative to the repository root
    monkeypatch.chdir(README.parent)
    examples = _readme_examples()
    assert len(examples) == 7
    for argv, want in examples:
        rc, out, _ = run_cli(capsys, *argv)
        assert (rc, out) == (EXIT_OK, want), argv


def test_readme_prime_example_file_is_the_fixture(rp2_complement):
    data = json.loads((README.parent / "tests" / "rp2_complement.json").read_text(encoding="utf-8"))
    assert graph_from_json(data) == rp2_complement


def test_readme_library_example():
    # a line followed by a "# ..." line is an expression with that repr
    block = README.read_text(encoding="utf-8").split("```python\n")[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("# "):
            continue
        if after.startswith("# "):
            assert repr(eval(line, namespace)) == after[2:], line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 3
