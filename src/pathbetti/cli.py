"""Command line front end.

Subcommands: betti (print a table), compare (oracle vs formula), omega
(homology of the sliding-window complex), paths (generator listing), and
homology (Taylor subcomplex homology at the top multidegree).  Exit codes:
0 success or match, 1 mismatch, 2 usage or unsupported input, 3 resource
cap.  Output for a fixed invocation is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .betti import BettiTable, graded_betti_table, multigraded_betti
from .complexes import DEFAULT_FACE_CAP, SizeCapError, omega_complex
from .formulas import UnsupportedFormulaError, formula_betti_table, omega_homology_dims_formula
from .graphs import Graph, enumerate_t_paths, graph_from_json, standard_graph
from .homology import DEFAULT_PRIME, reduced_homology_dims, validate_prime
from .ideals import ideal_lcm, path_ideal

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SIZE = 3

MEMO_HELP = "cache per isomorphism class of each connected component of G_W"


def _add_graph_flags(sp: argparse.ArgumentParser, with_edges: bool = True) -> None:
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--line", type=int, metavar="N", help="line graph L_N")
    grp.add_argument("--cycle", type=int, metavar="N", help="cycle graph C_N")
    grp.add_argument("--star", type=int, metavar="N", help="star S_N (N+1 vertices, center 1)")
    if with_edges:
        grp.add_argument("--edges", metavar="FILE", help='graph JSON file {"n":..., "edges":[[u,v],...]}')


def _resolve_graph(args) -> tuple[Graph, str, str | None, int | None]:
    """Graph plus display label plus (family, size) when named."""
    for family, tag in (("line", "L"), ("cycle", "C"), ("star", "S")):
        size = getattr(args, family, None)
        if size is not None:
            return standard_graph(family, size), f"{tag}_{size}", family, size
    path = getattr(args, "edges", None)
    with open(path) as fh:
        data = json.load(fh)
    return graph_from_json(data), "G", None, None


def _check_t(t: int) -> int:
    if t < 1:
        raise ValueError("t must be >= 1")
    return t


def render_table_text(table: BettiTable, title: str) -> str:
    d = table.as_dict()
    max_i, max_j = table.max_i, table.max_j
    cells = {ij: str(b) for ij, b in d.items()}
    w = max([len(str(max_j)), 1] + [len(s) for s in cells.values()])
    lw = max(3, len(str(max_i)))
    corner = "i\\j"
    lines = [title]
    lines.append(" ".join([f"{corner:>{lw}}"] + [f"{j:>{w}}" for j in range(max_j + 1)]))
    for i in range(max_i + 1):
        row = [f"{i:>{lw}}"]
        for j in range(max_j + 1):
            row.append(f"{cells.get((i, j), '.'):>{w}}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def render_table_json(table: BettiTable) -> str:
    entries = [{"i": i, "j": j, "b": b} for (i, j), b in table.entries]
    return json.dumps({"entries": entries}, separators=(",", ":"))


def render_table_csv(table: BettiTable) -> str:
    lines = ["i,j,b"]
    for (i, j), b in table.entries:
        lines.append(f"{i},{j},{b}")
    return "\n".join(lines)


def cmd_betti(args) -> int:
    t = _check_t(args.t)
    validate_prime(args.prime)
    G, label, family, size = _resolve_graph(args)
    if args.method == "formula":
        if family is None:
            raise ValueError("--method formula needs a named family (--line/--cycle/--star)")
        table = formula_betti_table(family, size, t).table
    else:
        table = graded_betti_table(G, t, p_field=args.prime, use_memo=args.memo)
    title = f"Betti numbers of S/I_{t}({label})"
    if args.fmt == "json":
        print(render_table_json(table))
    elif args.fmt == "csv":
        print(render_table_csv(table))
    else:
        print(render_table_text(table, title))
    return EXIT_OK


def cmd_compare(args) -> int:
    t = _check_t(args.t)
    validate_prime(args.prime)
    G, label, family, size = _resolve_graph(args)
    want = formula_betti_table(family, size, t).table.as_dict()
    got = graded_betti_table(G, t, p_field=args.prime, use_memo=args.memo).as_dict()
    if got == want:
        print(f"MATCH ({len(got)} entries)")
        return EXIT_OK
    for ij in sorted(set(got) | set(want)):
        a, f = got.get(ij, 0), want.get(ij, 0)
        if a != f:
            print(f"({ij[0]},{ij[1]}): oracle={a} formula={f}")
    print("MISMATCH")
    return EXIT_MISMATCH


def cmd_omega(args) -> int:
    if args.t < 1 or args.n < args.t:
        raise ValueError(f"need 1 <= t <= n, got t={args.t}, n={args.n}")
    validate_prime(args.prime)
    want_oracle = args.method in ("oracle", "both")
    want_formula = args.method in ("formula", "both")
    # one facet alone has 2^(n-t) faces; reject before building n-t+1 of them
    if want_oracle and args.n - args.t >= DEFAULT_FACE_CAP.bit_length():
        raise SizeCapError(
            f"omega n={args.n}, t={args.t}: one facet exceeds the {DEFAULT_FACE_CAP} face cap"
        )
    oracle = (
        reduced_homology_dims(omega_complex(args.n, args.t), args.prime).as_dict()
        if want_oracle
        else {}
    )
    formula = omega_homology_dims_formula(args.n, args.t) if want_formula else {}
    if args.method == "both":
        degrees = sorted(set(oracle) | set(formula))
        if not degrees:
            print("all zero, MATCH")
            return EXIT_OK
        ok = True
        for p in degrees:
            a, f = oracle.get(p, 0), formula.get(p, 0)
            verdict = "MATCH" if a == f else "MISMATCH"
            ok = ok and a == f
            print(f"p={p}: {a} (oracle) / {f} (formula) {verdict}")
        return EXIT_OK if ok else EXIT_MISMATCH
    dims = oracle if want_oracle else formula
    if not dims:
        print("all zero")
    else:
        for p in sorted(dims):
            print(f"p={p}: {dims[p]}")
    return EXIT_OK


def cmd_paths(args) -> int:
    t = _check_t(args.t)
    G, _, _, _ = _resolve_graph(args)
    gens = enumerate_t_paths(G, t)
    for g in gens:
        print(",".join(map(str, sorted(g))))
    print(f"{len(gens)} generator" + ("s" if len(gens) != 1 else ""))
    return EXIT_OK


def cmd_homology(args) -> int:
    t = _check_t(args.t)
    validate_prime(args.prime)
    G, _, _, _ = _resolve_graph(args)
    ideal = path_ideal(G, t)
    m = ideal_lcm(ideal)
    # b_{i,m} is dim H~_{i-2} of the strict Taylor subcomplex at m
    dims = [(i - 2, b) for i, b in sorted(multigraded_betti(ideal, m, args.prime).items())]
    if args.fmt == "json":
        payload = {
            "generators": len(ideal.generators),
            "lcm": sorted(m),
            "dims": [{"p": p, "dim": d} for p, d in dims],
            "betti": [{"i": p + 2, "b": d} for p, d in dims],
        }
        print(json.dumps(payload, separators=(",", ":")))
        return EXIT_OK
    print(f"generators: {len(ideal.generators)}")
    print("lcm support: " + (",".join(map(str, sorted(m))) if m else "(none)"))
    print(f"reduced homology of the strict Taylor subcomplex over GF({args.prime}):")
    if not dims:
        print("  all zero")
    else:
        for p, d in dims:
            print(f"  p={p}: {d}")
    print(f"top multidegree Betti numbers (j={len(m)}):")
    if not dims:
        print("  none")
    else:
        for p, d in dims:
            print(f"  b_{p + 2} = {d}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathbetti",
        description="Betti tables of path ideals: homology oracle and closed formulas.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    betti = sub.add_parser("betti", help="print the Betti table of S/I_t(G)")
    _add_graph_flags(betti)
    betti.add_argument("--t", type=int, required=True, metavar="K", help="path length in vertices")
    betti.add_argument("--method", choices=("oracle", "formula"), default="oracle")
    betti.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    betti.add_argument("--format", dest="fmt", choices=("table", "json", "csv"), default="table")
    betti.add_argument("--memo", action="store_true", help=MEMO_HELP)
    betti.set_defaults(func=cmd_betti)

    compare = sub.add_parser("compare", help="oracle vs formula on a named family")
    _add_graph_flags(compare, with_edges=False)
    compare.add_argument("--t", type=int, required=True, metavar="K")
    compare.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    compare.add_argument("--memo", action="store_true", help=MEMO_HELP)
    compare.set_defaults(func=cmd_compare)

    omega = sub.add_parser("omega", help="homology dims of the sliding-window complex")
    omega.add_argument("--n", type=int, required=True)
    omega.add_argument("--t", type=int, required=True, metavar="K")
    omega.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    omega.add_argument("--method", choices=("oracle", "formula", "both"), default="both")
    omega.set_defaults(func=cmd_omega)

    paths = sub.add_parser("paths", help="list the generators of I_t(G)")
    _add_graph_flags(paths)
    paths.add_argument("--t", type=int, required=True, metavar="K")
    paths.set_defaults(func=cmd_paths)

    homology = sub.add_parser("homology", help="Taylor subcomplex homology at the top multidegree")
    _add_graph_flags(homology)
    homology.add_argument("--t", type=int, required=True, metavar="K")
    homology.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    homology.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
    homology.set_defaults(func=cmd_homology)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc} (a named family may work via --method formula)", file=sys.stderr)
        return EXIT_SIZE
    except (UnsupportedFormulaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
