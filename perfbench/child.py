"""One timed pass of one workload part, in a fresh interpreter.

Started by run.py; prints one JSON object as its last line of stdout.

    python3 perfbench/child.py --workload sweep --seed 1 --mode pass --workdir DIR

Set-up ends once ``monideal`` is imported and the workload's inputs exist;
the time at that moment is reported so that the parent can measure set-up
from the moment it started this process.  Every lru cache in ``monideal``
must then be empty: the pass starts cold, as one CLI invocation does.
Modes: ``setup`` stops after set-up, ``pass`` runs the ops untraced and
``trace`` runs them with every layer wrapped in spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import COUNTERS, Tracer, aggregate, install  # noqa: E402


def lru_caches() -> dict[str, object]:
    """Every functools cache reachable from a loaded monideal module."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("monideal"):
            continue
        for attr, value in vars(module).items():
            candidates = [(attr, value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                candidates += [
                    (f"{attr}.{a}", getattr(v, "__func__", v)) for a, v in vars(value).items()
                ]
            for label, obj in candidates:
                if callable(getattr(obj, "cache_info", None)):
                    found.setdefault(id(obj), (f"{mod_name}.{label}", obj))
    return dict(found.values())


def layer_metrics(tracer, layer_caches) -> dict[str, float]:
    """Span times, counters and cache hits and misses of one traced pass.

    Only sums are reported: run.py adds the parts of a workload together
    and works out the ratios from the totals.
    """
    spans = aggregate(tracer.names, tracer.name_of, tracer.parent, tracer.start, tracer.end)
    out = {}
    for name, entry in spans.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.total_s"] = entry["total_s"]
    out.update({name: tracer.counters.get(name, 0) for name in COUNTERS})
    for layer, cache in layer_caches.items():
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        out[f"{layer}.cache_hits"] = info.hits if info else 0
        out[f"{layer}.cache_misses"] = info.misses if info else 0
    return out


def run_pass(ops):
    """Run every op once, in order: ([(output, error, seconds)], wall seconds)."""
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # a failed op is counted, and the pass goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        outputs.append((output, error, time.perf_counter() - start))
    return outputs, time.perf_counter() - t0


def check_outputs(ops, outputs) -> list[str]:
    """One message per failed op: it raised, or its output failed its check."""
    failures = []
    for op, (output, error, _) in zip(ops, outputs):
        if error is None:
            try:
                op.check(output)
            except Exception as exc:  # a wrong or unreadable output fails the op
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.name}: {error}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.mode == "trace" else None
    ops = workloads.build(args.workload, args.seed, args.workdir, tracer)
    setup_end = time.monotonic()

    caches = lru_caches()
    warm = {name: c.cache_info().currsize for name, c in caches.items()
            if c.cache_info().currsize}
    if warm:
        print(f"lru caches not empty before the timed pass: {warm}", file=sys.stderr)
        return 1
    result = {"setup_end": setup_end, "lru_caches": len(caches)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    layer_caches = {}
    if tracer is not None:
        layer_caches = install(tracer)
        # One root span per op: every span of an op descends from it.
        ops = [replace(op, run=tracer.span("op", op.run)) for op in ops]
    cpu0 = time.process_time()
    outputs, wall = run_pass(ops)
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.unpatch()
        result["layers"] = layer_metrics(tracer, layer_caches)
        if args.spans is not None:
            tracer.write(args.spans)

    failures = check_outputs(ops, outputs)
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak_rss_mb,
        op_ms=[1000 * seconds for _, _, seconds in outputs],
        attempted=len(ops),
        failed=len(failures),
        failures=failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
