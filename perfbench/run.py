"""pathbetti benchmark: whole Betti-table operations on four workloads.

    python3 perfbench/run.py --workload {families,forests,memo,dense} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Every measurement happens in a
fresh worker process (perfbench/worker.py), one at a time: one client,
closed loop.  With --trace 0 the last stdout line holds the end-to-end
metrics: two set-up-only workers and one worker that then runs timed
passes for S seconds give three set-up samples.  With --trace 1 it holds the
per-layer metrics from two traced workers, which must repeat each other's
counts exactly, next to an untraced worker that gives the tracing
overhead.  A details line (environment, per-operation times) precedes
the result.  The exit code is 0 only when every output was verified.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
# both modules import only the standard library at load time
from worker import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.max", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or platform.machine(),
        "seed": seed,
    }


def run_worker(args, deadline: float, seconds: float, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_summary(worker: dict) -> list[dict]:
    """Median time and outcomes of each operation over a worker's passes."""
    rows = []
    for k, label in enumerate(worker["labels"]):
        times = [p["op_s"][k] for p in worker["passes"]]
        outcomes = sorted({p["outcome"][k] for p in worker["passes"]})
        rows.append({"op": label, "median_s": statistics.median(times), "samples": len(times),
                     "outcome": "/".join(outcomes), **worker["info"][k]})
    return rows


def tally(workers: list[dict]) -> tuple[int, int]:
    outcomes = [o for w in workers for p in w["passes"] for o in p["outcome"]]
    return len(outcomes), sum(o == "failed" for o in outcomes)


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setups = [run_worker(args, deadline, 0) for _ in range(SETUP_SAMPLES - 1)]
    timed = run_worker(args, deadline, args.seconds)
    passes = timed["passes"]
    # per-operation medians over the passes damp bursts of interference from
    # other work on the machine that hit one pass
    op_medians = [statistics.median(p["op_s"][k] for p in passes) for k in range(len(timed["labels"]))]
    wall = sum(op_medians)
    ok = [p["outcome"].count("ok") for p in passes]
    attempted = sum(len(p["outcome"]) for p in passes)
    values = {
        "wall_s": wall,
        "ops_per_s": statistics.median(ok) / wall,
        "op_s.p50": statistics.median(s for p in passes for s in p["op_s"]),
        "op_s.max": max(op_medians),
        "ok_frac": sum(ok) / attempted,
        "peak_rss_mb": timed["maxrss_kib"] / 1024,
        "setup_s": statistics.median([w["setup_s"] for w in setups] + [timed["setup_s"]]),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_samples": attempted,
        "setup_samples": [w["setup_s"] for w in setups] + [timed["setup_s"]],
        "ops": op_summary(timed),
    }
    return values, setups + [timed], details


def per_layer(args, deadline: float) -> tuple[dict, list[dict], dict]:
    OUT.mkdir(exist_ok=True)
    plain = run_worker(args, deadline, args.seconds / 3)
    traced = [run_worker(args, deadline, 1, OUT / f"{args.workload}-trace{k}.npz") for k in (1, 2)]
    problems = []
    if traced[0]["counts"] != traced[1]["counts"]:
        diff = sorted(k for k in traced[0]["counts"] if traced[0]["counts"][k] != traced[1]["counts"].get(k))
        problems.append(f"traced counts differ between two runs: {diff}")
    values = {}
    for name, _ in PER_LAYER:
        samples = [w["layers"][name] for w in traced]
        values[name] = statistics.mean(samples) if isinstance(samples[0], float) else samples[0]
    untraced_wall = statistics.median(p["wall_s"] for p in plain["passes"])
    values["trace.overhead_frac"] = values["trace.pass_s"] / untraced_wall - 1
    details = {
        "absent": traced[0]["absent"],
        "untraced_pass_wall_s": [p["wall_s"] for p in plain["passes"]],
        "counts": traced[0]["counts"],
        "trace_files": [str(OUT.relative_to(ROOT) / f"{args.workload}-trace{k}.npz") for k in (1, 2)],
        "problems": problems,
    }
    return values, [plain] + traced, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "pathbetti" / "__init__.py").is_file():
        print(f"error: no pathbetti sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, workers, details = per_layer(args, deadline)
            units = dict(PER_LAYER, **{"trace.overhead_frac": "ratio"})
        else:
            values, workers, details = end_to_end(args, deadline)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = [p for w in workers for p in w["problems"]] + details.pop("problems", [])
    attempted, failed = tally(workers)
    correct = failed == 0 and not problems
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "env": environment(args.seed), "problems": sorted(set(problems)), **details,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
