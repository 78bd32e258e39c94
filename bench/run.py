"""quandlekit benchmark: four workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload, each in a fresh process (bench/worker.py),
until the next pass would end after S seconds.  With --trace 0 every pass
is untraced and the end-to-end metrics are reported; with --trace 1
untraced and traced passes alternate and the per-layer metrics are
reported, including the tracing overhead (traced minus untraced pass
time).  Every figure is the median over the run's passes; the item
latency median pools the items of all untraced passes.

Times are in reference seconds.  The host this was built on changes
speed by a quarter and more within seconds to minutes, for every process
alike, so a wall time alone says more about the host than about the
program.  The pass process times a fixed plain-Python kernel around
every item (worker.py); each item's wall time is scaled by
REFERENCE_UNIT_S over the kernel's time around it: the time the item
would have taken on a host where the kernel takes REFERENCE_UNIT_S.  A
pass is the sum of its items; the item latency median and the layer
times use the pass's mean scale.  The context line keeps the raw wall
times and kernel times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
machine, the seed and the output digest.  `correct` requires every item
of every pass to pass its oracles, every pass to produce the same output
digest, and, for the pinned seed, the digest pinned in digests.json.
See bench/README.md for the workloads and metrics.
"""

import argparse
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
RUN_LIMIT_S = 170  # a run must end within 180 s
# near the kernel's time on a 2.0 GHz Xeon vCPU with Python 3.11, so that
# reference seconds read close to wall seconds there
REFERENCE_UNIT_S = 0.010


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         "1" if traced else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall_setup_s = result["first_item"] - started
    result["wall_setup_s"] = wall_setup_s
    result["wall_pass_s"] = sum(result["item_s"])
    result["setup_s"] = wall_setup_s * REFERENCE_UNIT_S / result["start_unit_s"]
    result["ref_item_s"] = [t * REFERENCE_UNIT_S / u
                            for t, u in zip(result["item_s"], result["item_unit_s"])]
    result["pass_s"] = sum(result["ref_item_s"])
    # the pass's mean speed, for single items and for layers, whose kernel
    # runs are too short or too far apart to scale them one by one
    result["speed"] = result["pass_s"] / result["wall_pass_s"]
    return result


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(passes) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "pass_s": {"value": median_of(passes, "pass_s"), "unit": "s"},
        "item_p50_ms": {"value": 1000 * statistics.median(
            t * p["speed"] for p in passes for t in p["item_s"]), "unit": "ms"},
        "setup_s": {"value": median_of(passes, "setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def per_layer(untraced, traced) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        seconds = statistics.median(p["layers"][name]["s"] * p["speed"] for p in traced)
        calls = statistics.median(p["layers"][name]["calls"] for p in traced)
        if name == "item":
            metrics["item.self_s"] = {"value": seconds, "unit": "s"}
        else:
            metrics[f"{name}.s"] = {"value": seconds, "unit": "s"}
            metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
    counts = {name: statistics.median(p["counts"][name] for p in traced)
              for name in traced[0]["counts"]}
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": "count"}
    candidates = counts["abelian.automorphism_permutations.candidates"]
    kept = counts["abelian.automorphism_permutations.kept"]
    metrics["abelian.automorphism_permutations.yield"] = {
        "value": kept / candidates if candidates else 0.0, "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": median_of(traced, "pass_s") - median_of(untraced, "pass_s"), "unit": "s"}
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["prime_sweep", "report", "abelian_pairs", "census"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "quandlekit" / "__init__.py").is_file():
        print(f"error: no quandlekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "digests.json").read_text())

    modes = [False, True] if args.trace else [False]
    started = time.monotonic()
    untraced, traced = [], []
    while True:
        round_started = time.monotonic()
        for mode in modes:
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            result = run_pass(args.workload, args.seed, mode, max(remaining, 1))
            (traced if mode else untraced).append(result)
        elapsed = time.monotonic() - started
        if elapsed + (time.monotonic() - round_started) > args.seconds:
            break

    passes = untraced + traced
    digests = sorted({p["digest"] for p in passes})
    failed = sum(p["failed"] for p in passes)
    pinned_digest = pinned["digests"].get(args.workload) if args.seed == pinned["seed"] else None
    correct = (
        failed == 0
        and len(digests) == 1
        and (pinned_digest is None or digests == [pinned_digest])
    )
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_pass_s": {"untraced": [round(p["wall_pass_s"], 4) for p in untraced],
                        "traced": [round(p["wall_pass_s"], 4) for p in traced]},
        "wall_setup_s": [round(p["wall_setup_s"], 4) for p in passes],
        "kernel_s": [round(statistics.mean(p["item_unit_s"]), 5) for p in passes],
        "digest": digests[0] if len(digests) == 1 else digests,
        "pinned_digest": pinned_digest,
        "errors": sorted({e for p in passes for e in p["errors"]})[:10],
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": passes[0]["numpy"],
            "commit": commit(),
        },
    }
    print(json.dumps(context))
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
