"""Benchmark of monideal: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

A workload is one or more parts, and each timed pass of a part runs in a
fresh interpreter (perfbench/child.py), so the lru caches start empty as
they do for one CLI invocation.  The load is a closed loop from one process
and one thread: one op at a time, each waiting for the previous answer.
Children go round the parts, each pass preceded by a set-up-only child of
its part, until the next child would end after ``--seconds``.  Times are
means over the run's passes, so that they average the machine's speed over
the whole run; set-up and peak memory are medians.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported instead of the end-to-end ones.

The metrics printed are those named in BENCHMARK.json at the repository
root.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the Python version, the git sha and the ``src/`` line
count, and the run's details are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# The parts of each workload, by the names workloads.build knows.  `large`
# is the one BENCHMARK.json uses for the big ideals: one run covers both of
# its parts, which are also runnable alone.
PARTS = {
    "sweep": ("sweep",),
    "large": ("cycles", "polyhedra"),
    "cycles": ("cycles",),
    "polyhedra": ("polyhedra",),
}
# A run must end within 180 s; no child may outlive this.
RUN_DEADLINE_S = 170
# Measured and printed, but not in BENCHMARK.json, which must name each
# metric for every workload: on the large workload each is the time of one
# or two ops, whose run-to-run spread has exceeded the largest bound a
# metric may have (see README.md).
PRINTED_ONLY_UNITS = {"op_p50_ms": "ms", "op_p95_ms": "ms"}


class BenchError(Exception):
    pass


def machine_context() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def git_sha() -> str | None:
    """HEAD of the repository holding this file, read without running git;
    None in a checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(workload: str, seed: int, mode: str, deadline: float, spans: Path | None):
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not end before the deadline")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - started
    result["elapsed_s"] = time.monotonic() - started
    return result


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """Children of every part and mode, in turn, until the next would end
    after ``seconds``: {part: {mode: [child result]}}."""
    run_start = time.monotonic()
    stop = run_start + seconds
    deadline = run_start + RUN_DEADLINE_S
    modes = ("setup", "pass", "trace") if trace else ("setup", "pass")
    runs = {part: {mode: [] for mode in modes} for part in PARTS[workload]}
    while True:
        for part in runs:
            for mode in modes:
                done = runs[part][mode]
                # Every child runs once; after that the slowest so far must fit.
                if done and time.monotonic() + max(r["elapsed_s"] for r in done) > stop:
                    return runs
                spans = OUT / f"spans-{part}-seed{seed}.tsv.gz" if mode == "trace" else None
                done.append(run_child(part, seed, mode, deadline, spans))


def mean_over_passes(runs, mode: str, key: str) -> float:
    """The mean of ``key`` over a mode's passes, summed over the parts."""
    return sum(statistics.fmean(r[key] for r in part[mode]) for part in runs.values())


def end_to_end(runs) -> dict[str, float]:
    # Every pass of a part runs the same ops in the same order: each op's
    # time is its mean over the passes, and the percentiles are taken over
    # the ops of all parts.
    op_ms = [statistics.fmean(times) for part in runs.values()
             for times in zip(*(r["op_ms"] for r in part["pass"]))]
    return {
        "wall_s": mean_over_passes(runs, "pass", "wall_s"),
        "op_p50_ms": statistics.median(op_ms),
        "op_p95_ms": percentile(op_ms, 0.95),
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in part["pass"])
                           for part in runs.values()),
        "setup_s": sum(statistics.median(r["setup_s"] for mode in part.values() for r in mode)
                       for part in runs.values()),
    }


def per_layer(runs) -> dict[str, float]:
    out = {}
    for part in runs.values():
        traced = part["trace"]
        for key in traced[0]["layers"]:
            out[key] = out.get(key, 0) + statistics.median(r["layers"][key] for r in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    out["ideals.minimalize.kept_ratio"] = ratio(
        out["ideals.minimalize.kept"], out["ideals.minimalize.candidates"])
    out["decomposition.irredundant.kept_ratio"] = ratio(
        out["decomposition.irredundant.kept"], out["decomposition.irredundant.in"])
    out["polyhedra.vertices.yield"] = ratio(
        out["polyhedra.vertices.found"], out["polyhedra.vertices.subsets"])
    for key in [k for k in out if k.endswith(".cache_hits")]:
        layer = key.removesuffix(".cache_hits")
        hits, misses = out[key], out[f"{layer}.cache_misses"]
        out[f"{layer}.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["process.cpu_s"] = mean_over_passes(runs, "pass", "cpu_s")
    out["tracing.overhead_s"] = (mean_over_passes(runs, "trace", "wall_s")
                                 - mean_over_passes(runs, "pass", "wall_s"))
    return out


def stop_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child before the benchmark exits.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(PARTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monideal" / "__init__.py").is_file():
        print(f"error: no monideal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = per_layer(runs) if args.trace else end_to_end(runs)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    everything = [r for part in runs.values() for mode in part.values() for r in mode]
    attempted = sum(r.get("attempted", 0) for r in everything)
    failed = sum(r.get("failed", 0) for r in everything)
    failures = [f for r in everything for f in r.get("failures", [])]
    context = machine_context()
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace,
                   passes={p: len(part["pass"]) for p, part in runs.items()},
                   traced_passes={p: len(part.get("trace", [])) for p, part in runs.items()},
                   ops_per_pass={p: part["pass"][0]["attempted"] for p, part in runs.items()},
                   lru_caches_checked_cold={p: part["pass"][0]["lru_caches"]
                                            for p, part in runs.items()})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("context " + json.dumps(context, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, unit in PRINTED_ONLY_UNITS.items():
        if name in values:
            print(f"{name} {values[name]:.6g} {unit} (printed, not in metrics)")
    print(f"error_rate {failed / attempted if attempted else 0:.6g} "
          f"({failed} failed of {attempted} ops attempted)")
    for failure in failures[:20]:
        print(f"failed: {failure}")
    record = {"context": context, "metrics": metrics, "runs": runs}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
