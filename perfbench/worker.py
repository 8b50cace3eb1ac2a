"""Child process of the benchmark: one set-up, one pass, or the level-engine probe.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py pass <workload> <seed> [--check] [--trace SPANS_FILE]
    python3 perfbench/worker.py levels

Each prints one JSON object on stdout.  ``ready`` is a time.monotonic()
stamp, which the parent compares with its own stamp taken just before it
started this process; ``scale`` turns that into seconds at full speed
(see workloads.python_probe).  Every run is a fresh process, so the
library's caches start cold.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from loopatlas import cartan, errors, weyl  # noqa: E402

REJECTIONS = {
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.LoopAtlasError)
}


def setup(name: str, seed: int) -> dict:
    workloads.build(name, seed)
    ready = time.monotonic()
    factors = sorted(workloads.python_probe() for _ in range(5))
    return {"ready": ready, "scale": factors[2]}


def _sections(result: workloads.Pass) -> dict[str, list]:
    """Per section: [scaled seconds over all its units, operations]."""
    out = {name: [0.0, count] for name, count in result.counts.items()}
    for name, seconds in result.scaled_units():
        out[name][0] += seconds
    return out


def one_pass(name: str, seed: int, check: bool, spans_file: str | None) -> dict:
    inputs = workloads.build(name, seed)
    ready = time.monotonic()
    if spans_file:
        trace = tracer.Tracer()
        trace.install(workloads.MODULES)
        try:
            result = workloads.run(name, inputs)
        finally:
            trace.uninstall()
    else:
        result = workloads.run(name, inputs)
    out = {
        "ready": ready,
        "done": result.done,
        "units": [seconds for _, seconds in result.scaled_units()],
        "sections": _sections(result),
        "work": result.work,
        "attempted": result.attempted,
        "digest": workloads.output_digest(name, result.outputs),
    }
    if check:
        failed, problems = workloads.check(name, inputs, result.outputs)
        out.update(failed=failed, problems=problems[:20])
    # spans are timed unscaled; this pass's scale turns them into full-speed seconds
    out["scale"] = sum(out["units"]) / sum(seconds for _, seconds, _ in result.units)
    if spans_file:
        trace.write(spans_file)
        out["modules"] = tracer.module_summary(trace.spans, REJECTIONS)
        totals: dict[str, list] = {}
        for span in trace.spans:
            entry = totals.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.end - span.start
        out["span_totals"] = totals
    return out


def levels() -> dict:
    """ball_sizes on every atlas type at the atlas bound, cache cleared
    before each call and timed as a unit, then the tracemalloc peak of the
    largest ball."""
    bound = oracle.ATLAS_MAX_LENGTH
    clock = workloads.Clock(workloads.numpy_probe)
    problems = []
    sizes = {}
    for cm in cartan.all_types(oracle.ATLAS_MAX_RANK):
        weyl.ball_sizes.cache_clear()
        with clock.unit("levels"):
            counts = weyl.ball_sizes(cm, bound)
        if list(counts) != oracle.level_counts(cm.label, bound):
            problems.append(f"{cm.label}: ball_sizes {counts} differ from the oracle")
        sizes[cm] = sum(counts)
    largest = max(sizes, key=sizes.get)
    weyl.ball_sizes.cache_clear()
    tracemalloc.start()
    try:
        weyl.ball_sizes(largest, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "elements": sum(sizes.values()),
        "seconds": sum(seconds for _, seconds in workloads.scaled(clock.units)),
        "largest": largest.label,
        "bytes_per_element": peak / sizes[largest],
        "attempted": len(sizes),
        "failed": len(problems),
        "problems": problems,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "pass", "levels"))
    parser.add_argument("workload", nargs="?", choices=workloads.NAMES)
    parser.add_argument("seed", nargs="?", type=int)
    parser.add_argument("--check", action="store_true", help="check the outputs against the references")
    parser.add_argument("--trace", metavar="SPANS_FILE")
    args = parser.parse_args()
    if args.mode == "levels":
        out = levels()
    elif args.workload is None or args.seed is None:
        parser.error(f"{args.mode} needs a workload and a seed")
    elif args.mode == "setup":
        out = setup(args.workload, args.seed)
    else:
        out = one_pass(args.workload, args.seed, args.check, args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
