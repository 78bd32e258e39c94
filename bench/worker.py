"""One pass of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED TRACE

Draws the workload's inputs from SEED, runs every item once, checks every
output against the workload's oracles after the timed loop, and prints
one JSON line: every item's latency and the host speed around it,
failures, the sha256 of the canonical outputs, peak RSS and, with
TRACE 1, per-layer self time, call counts and work counts.  A traced
pass wraps the layer functions in place before the first item
(spans.py), so both kinds of pass run the same library calls.  run.py
starts one of these per pass so that nothing a pass memoises can carry
over to the next.

The host speed is measured with a fixed plain-Python kernel
(``calibrate``), run before the first item and after every item, outside
the items' times: after an item for about a tenth of the item's time, so
that a long item is matched by a long measurement.  An item's speed is
the mean kernel time just before and just after it.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

KERNEL_P, KERNEL_G = 41, 6  # 6 generates Z_41*; one unit takes about 10 ms
START_UNITS = 20            # before the first item
PROBE_SHARE = 0.1           # kernel time after an item, per second of item


def calibrate(p: int = KERNEL_P, g: int = KERNEL_G) -> int:
    """Close AGL(1, p) from x -> x + 1 and x -> g x, permutations as
    tuples: the same kind of work as quandlekit's group closures, in code
    that does not change with quandlekit."""
    gens = [tuple((x + 1) % p for x in range(p)), tuple(g * x % p for x in range(p))]
    identity = tuple(range(p))
    seen, frontier = {identity}, [identity]
    while frontier:
        found = []
        for h in frontier:
            for s in gens:
                k = tuple(s[i] for i in h)
                if k not in seen:
                    seen.add(k)
                    found.append(k)
        frontier = found
    return len(seen)


def unit_seconds(units: int) -> float:
    """Mean time of one kernel run over ``units`` runs, collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(units):
            if calibrate() != KERNEL_P * (KERNEL_P - 1):
                raise SystemExit("calibration kernel closed the wrong group")
        return (time.perf_counter() - t0) / units
    finally:
        gc.enable()


def canonical(output) -> bytes:
    """The scan JSON as written; every other output as sorted-key JSON."""
    if isinstance(output, str):
        return output.encode()
    return json.dumps(output, sort_keys=True).encode()


def main(argv) -> int:
    workload = workloads.WORKLOADS[argv[1]]
    seed = int(argv[2])
    tracer = Tracer() if argv[3] == "1" else NullTracer()
    inputs = workload.make_inputs(seed)
    tracer.install(workloads.LAYERS, [workloads])

    outputs, latencies, item_units, errors = [], [], [], []
    first_item = time.monotonic()
    start_unit = before = unit_seconds(START_UNITS)
    for item in inputs:
        t0 = time.perf_counter()
        try:
            with tracer.span("item"):
                outputs.append(workload.run(item))
        except Exception as exc:  # an item that raises is a failure, not a stop
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        after = unit_seconds(max(1, round(PROBE_SHARE * latency / before)))
        latencies.append(latency)
        item_units.append((before + after) / 2)
        before = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    digest = hashlib.sha256()
    for item, output in zip(inputs, outputs):
        digest.update(canonical(output) + b"\n")
        if output is None:
            failed += 1
            continue
        try:
            problems = workload.check(item, output)
        except Exception as exc:
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            errors.extend(problems[:3])

    result = {
        "first_item": first_item,
        "start_unit_s": start_unit,
        "item_s": latencies,
        "item_unit_s": item_units,
        "attempted": len(inputs),
        "failed": failed,
        "errors": errors[:10],
        "digest": digest.hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    if tracer.enabled:
        result["layers"] = tracer.layers(workloads.LAYERS)
        result["counts"] = {name: tracer.counts.get(name, 0) for name in workloads.COUNTS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
