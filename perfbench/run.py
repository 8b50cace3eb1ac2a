"""loopatlas benchmark.

    python3 perfbench/run.py --workload {atlas,stream,catalog} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it first starts SETUP_SAMPLES processes that only import
the library and build the inputs, then runs passes of the workload, each
in a fresh process and one after another (a closed loop with one client),
until ``--seconds`` have passed and at least MIN_PASSES passes are done.
It prints the end-to-end metrics.

Times are seconds at the machine's full speed: each unit of a pass is
scaled by a speed probe taken around it (see workloads.py).  The first
pass of a run checks its outputs; the others must give the same digest.

With ``--trace 1`` it runs the layer suite, the same for every workload:
for each workload one untraced and one traced pass, plus the level-engine
probe.  It prints the per-layer metrics.  The tracer wraps the library's
public functions from outside (see tracer.py) and writes the spans of
the last traced pass of each workload to .perfbench/.

Every output is checked against the references in oracle.py; the last
line of stdout is the JSON result.  The run fails, printing no result,
when the library sources are missing or a child process fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

NAMES = ("atlas", "stream", "catalog")
SETUP_SAMPLES = 7
MIN_PASSES = 2

# modules each workload's traced pass reaches; the others report nothing there
TRACED_MODULES = {
    "atlas": ("cli", "cartan", "roots", "weyl", "parabolic", "criterion"),
    "stream": ("cartan", "roots", "weyl", "parabolic"),
    "catalog": ("cartan", "roots", "weyl", "parabolic", "criterion", "maass_selberg", "serialize"),
}
REJECTING_MODULES = ("cartan", "weyl", "parabolic", "criterion")

# per-layer metrics in microseconds per call, timed around one kind of call
# in an untraced pass: name -> (workload, section)
SECTION_METRICS = {
    "weyl.enumerate_us_per_element": ("stream", "enumerate"),
    "weyl.word_op_us": ("stream", "words"),
    "parabolic.constant_term_us": ("catalog", "constant_term"),
    "cartan.from_matrix_us": ("catalog", "from_matrix"),
    "criterion.godement_exact_us": ("catalog", "godement_exact"),
    "criterion.godement_float_us": ("catalog", "godement_float"),
    "maass_selberg.scan_us_per_point": ("catalog", "scan"),
    "serialize.scan_json_us": ("catalog", "scan_json"),
}


class BenchError(Exception):
    pass


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def spawn(argv: list[str]) -> tuple[str, float, float]:
    """Run a child to completion: (stdout, start stamp, peak RSS in MB).

    The peak RSS is the child's own, from the rusage that wait4 returns.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])} exited with {proc.returncode}")
    return out.decode(), start, usage.ru_maxrss / 1024


def worker(*args: str) -> tuple[dict, float, float]:
    text, start, rss = spawn([sys.executable, str(HERE / "worker.py"), *args])
    return json.loads(text.strip().splitlines()[-1]), start, rss


def setup_time(name: str, seed: int) -> float:
    out, start, _ = worker("setup", name, str(seed))
    return (out["ready"] - start) * out["scale"]


def one_pass(name: str, seed: int, checked: dict | None = None, spans_file: Path | None = None) -> dict:
    """One pass in a fresh process.  Without ``checked`` it checks its own
    outputs; with it, its outputs must equal those of that checked pass."""
    flags = ["--trace", str(spans_file)] if spans_file else []
    out, _, rss = worker("pass", name, str(seed), *flags, *([] if checked else ["--check"]))
    out.update(wall_s=sum(out["units"]), raw_s=out["done"] - out["ready"], rss_mb=rss)
    if checked:
        same = out["digest"] == checked["digest"]
        out.update(failed=checked["failed"], problems=[] if same else [f"{name}: outputs differ between passes"])
    return out


def tally(passes: list[dict]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over the passes of a run."""
    problems = [p for run in passes for p in run["problems"]]
    return (
        not problems,
        sum(run["attempted"] for run in passes),
        sum(run["failed"] for run in passes),
        problems,
    )


def end_to_end(name: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    setups = [setup_time(name, seed) for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    passes = [one_pass(name, seed)]
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(one_pass(name, seed, checked=passes[0]))
    _, attempted, failed, _ = tally(passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "work_per_s": (statistics.median(p["work"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    return passes, metrics


def layers(seed: int) -> tuple[list[dict], dict]:
    OUT.mkdir(exist_ok=True)
    metrics: dict[str, tuple[float, str]] = {}
    plain, traced = {}, {}
    for name in NAMES:
        plain[name] = one_pass(name, seed)
        traced[name] = one_pass(name, seed, checked=plain[name], spans_file=OUT / f"spans-{name}.jsonl.gz")
        metrics[f"{name}.trace_overhead"] = (traced[name]["wall_s"] / plain[name]["wall_s"], "ratio")
        modules, scale = traced[name]["modules"], traced[name]["scale"]
        for module in TRACED_MODULES[name]:
            entry = modules.get(module, {"self_s": 0.0, "calls": 0})
            metrics[f"{name}.{module}.self_s"] = (entry["self_s"] * scale, "s")
            metrics[f"{name}.{module}.calls"] = (entry["calls"], "count")
    probe, _, _ = worker("levels")
    metrics["weyl.levels_elements_per_s"] = (probe["elements"] / probe["seconds"], "1/s")
    metrics["weyl.levels_bytes_per_element"] = (probe["bytes_per_element"], "B")
    _, sweep_s = traced["atlas"]["span_totals"]["parabolic.maximal_certificates"]
    metrics["parabolic.sweep_elements_per_s"] = (traced["atlas"]["work"] / (sweep_s * traced["atlas"]["scale"]), "1/s")
    metrics["parabolic.finite_witness_s"] = (plain["stream"]["sections"]["finite"][0], "s")
    for metric, (name, section) in SECTION_METRICS.items():
        seconds, count = plain[name]["sections"][section]
        metrics[metric] = (seconds / count * 1e6, "us")
    metrics["cartan.component_types_calls"] = (
        traced["catalog"]["span_totals"].get("cartan.component_types", [0])[0],
        "count",
    )
    for module in REJECTING_MODULES:
        rejected = traced["catalog"]["modules"].get(module, {}).get("rejected", 0)
        metrics[f"{module}.rejected"] = (rejected, "count")
    return [*plain.values(), *traced.values(), probe], metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        for needed in (ROOT / "src" / "loopatlas" / "__init__.py", ROOT / "tests" / "series_counts.py"):
            if not needed.is_file():
                raise BenchError(f"missing {needed.relative_to(ROOT)}; run from a full checkout")
        machine = fingerprint()
        if args.trace:
            passes, metrics = layers(args.seed)
        else:
            passes, metrics = end_to_end(args.workload, args.seed, args.seconds)
        correct, attempted, failed, problems = tally(passes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
    for problem in problems[:20]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": machine,
        "passes": [{k: v for k, v in p.items() if k not in ("modules", "span_totals")} for p in passes],
        "result": result,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"fingerprint": machine, "passes": len(passes)}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
