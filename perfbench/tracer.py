"""Spans and counters around the calls pathbetti's modules make into each other.

The tracer replaces a function by a wrapper under the name its caller looks
up (a module global or a class attribute), so the package itself is not
edited.  Each call records its name, start, end and parent span in flat
arrays kept in memory; counters that need the call's result are updated by
per-layer hooks.  A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, after=None, on_error=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``after(result, args)`` runs once the call returns and
        ``on_error(exc)`` when it raises; both run outside the span.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.stack)

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf_counter()
                starts[sid] = t0
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[sid] = perf_counter()
            starts[sid] = t0
            stack.pop()
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapper)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        if not self.span_name:
            return {}
        name = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(self.span_start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span (name id, parent, start, end) and the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _module(name: str):
    try:
        return importlib.import_module(f"pathbetti.{name}")
    except ModuleNotFoundError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap each layer boundary of pathbetti under the name its caller uses."""
    betti, cli, formulas, homology, ideals = (
        _module(name) for name in ("betti", "cli", "formulas", "homology", "ideals"))
    from pathbetti import SizeCapError

    c = tracer.counts

    def on_cap(exc):
        if isinstance(exc, SizeCapError):
            c["cap_hits"] += 1

    def after_rank(rank, args):
        M = args[0]
        c["rank_pivots"] += rank
        c["rank_cols"] += M.ncols
        c["matrix_cells"] += M.nrows * M.ncols

    def after_boundary(M, args):
        c["boundary_nnz"] += len(M.entries)

    def after_faces(faces, args):
        total = sum(len(v) for v in faces.values())
        c["faces_total"] += total
        c["faces_max"] = max(c["faces_max"], total)

    walk = tracer._id("betti.graded_betti_table")
    span_name, stack = tracer.span_name, tracer.stack

    def after_closed(closed, args):
        # only the subset walk's own tests, not the re-test in multigraded_betti
        if stack and span_name[stack[-1]] == walk:
            c["walk_subsets"] += 1
            c["walk_closed"] += bool(closed)

    def after_lookup(vec, args):
        c["memo_hits"] += vec is not None

    sites = (
        (betti, "path_ideal", "ideals.path_ideal", None, None),
        (betti, "is_lcm_closed", "ideals.is_lcm_closed", after_closed, None),
        (betti, "taylor_strict_sub", "ideals.taylor_strict_sub", None, None),
        (betti, "multigraded_betti", "betti.multigraded_betti", None, None),
        (betti, "reduced_homology_dims", "homology.reduced_homology_dims", None, None),
        (betti, "induced_subgraph", "graphs.induced_subgraph", None, None),
        (betti, "graded_betti_table", "betti.graded_betti_table", None, None),
        (getattr(betti, "IsoMemo", None), "lookup", "betti.memo.lookup", after_lookup, None),
        (getattr(betti, "IsoMemo", None), "store", "betti.memo.store", None, None),
        (homology, "faces_by_dim", "complexes.faces_by_dim", after_faces, on_cap),
        (homology, "boundary_matrix", "homology.boundary_matrix", after_boundary, None),
        (getattr(homology, "PrimeFieldMatrix", None), "rank", "homology.rank", after_rank, on_cap),
        (ideals, "enumerate_t_paths", "graphs.enumerate_t_paths", None, None),
        (formulas, "formula_betti_table", "formulas.formula_betti_table", None, None),
        (cli, "graph_from_json", "graphs.graph_from_json", None, None),
        (cli, "graded_betti_table", "betti.graded_betti_table", None, None),
        (cli, "formula_betti_table", "formulas.formula_betti_table", None, None),
        (cli, "main", "cli.main", None, None),
    )
    for owner, attr, name, after, on_error in sites:
        tracer.wrap(owner, attr, name, after=after, on_error=on_error)
