"""One workload in one fresh Python process; run.py starts it and reads its result.

Modes:
  setup  import epibound, build the inputs, warm up, report when ready, exit
  run    then call the library until --seconds have passed, check every output
  trace  run a fixed seeded list of calls untraced, then again traced, and
         derive the per-layer metrics from the traced spans

The last stdout line is one JSON object; ``t_ready`` is CLOCK_MONOTONIC
(shared by all processes) at the first timed item, so run.py can measure
set-up time from the moment it launched this process.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

import calibrate

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench_work"


class Call(NamedTuple):
    spec: Any
    out: dict        # the workload's reduced output
    seconds: float   # wall time of the library call
    scale: float     # reference-speed factor from the kernels around the call


def load_epibound():
    """Import epibound from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "epibound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no epibound sources under {src}")
    sys.path.insert(0, str(src))
    import epibound.cli  # noqa: F401  (set-up time includes the full CLI import)
    import epibound

    if Path(epibound.__file__).resolve().parent != (src / "epibound").resolve():
        raise SystemExit(f"perfbench: epibound imported from {epibound.__file__}, not {src}")
    return epibound


def execute(workload, groups, tracer=None, seconds=None, min_groups=1):
    """Call the library for each spec; stop between groups once ``seconds`` passed.

    Each call is bracketed by calibration kernels (see calibrate.py) and
    its output reduced before the next call.  Returns the calls and the
    wall time.
    """
    calls = []
    clock = time.perf_counter
    start = clock()
    kernel = calibrate.kernel_seconds(workload.kernel)
    for n, group in enumerate(groups, start=1):
        for spec in group:
            if tracer is not None:
                tracer.item = len(calls)
            t0 = clock()
            out = workload.call(spec)
            dt = clock() - t0
            after = calibrate.kernel_seconds(workload.kernel)
            calls.append(Call(spec, workload.reduce(out), dt,
                              calibrate.scale(kernel, after, workload.kernel)))
            kernel = after
        if seconds is not None and n >= min_groups and clock() - start >= seconds:
            break
    return calls, clock() - start


def check_all(workload, calls, reference) -> tuple[int, list]:
    failed, messages = 0, []
    for c in calls:
        msg = workload.check(c.spec, c.out, reference)
        if msg is not None:
            failed += c.spec.items
            messages.append(msg)
    return failed, messages


def outputs_digest(workload, calls) -> str:
    """One digest over every call's output, in call order."""
    h = hashlib.sha256()
    for c in calls:
        h.update(workload.fingerprint(c.out).encode())
    return h.hexdigest()[:16]


def timings(calls) -> dict:
    """Throughput and latency at reference speed, plus the raw figures."""
    ms = [c.seconds * c.scale * 1e3 for c in calls]
    cuts = statistics.quantiles(ms, n=100) if len(ms) > 1 else ms * 99
    items = sum(c.spec.items for c in calls)
    return {
        "items_per_s": items / sum(c.seconds * c.scale for c in calls),
        "p50_ms": statistics.median(ms),
        "p99_ms": cuts[98],
        "samples": len(ms),
        "beyond_p99": sum(1 for v in ms if v > cuts[98]),
        "raw_items_per_s": items / sum(c.seconds for c in calls),
        "raw_p50_ms": statistics.median(c.seconds * 1e3 for c in calls),
        "mean_scale": statistics.fmean(c.scale for c in calls),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    epibound = load_epibound()
    import workloads

    work_dir = WORK_DIR / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work_dir)
    workload.setup(args.seed)
    workload.warmup()
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "kernel_s": calibrate.kernel_seconds()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    plan = workload.plan(args.seed)
    if args.mode == "run":
        calls, wall = execute(workload, plan, seconds=args.seconds,
                              min_groups=workload.min_groups)
        failed, messages = check_all(workload, calls, workloads.load_reference()[args.workload])
        result.update(wall_s=wall, timings=timings(calls),
                      outputs_digest=outputs_digest(workload, calls))
    else:
        import metrics
        import tracer as tracing

        calls = itertools.chain.from_iterable(plan)
        groups = [list(itertools.islice(calls, workload.trace_calls(args.seconds)))]
        untraced, wall = execute(workload, groups)
        failed, messages = check_all(workload, untraced, workloads.load_reference()[args.workload])
        tracer = tracing.Tracer()
        tracing.install(tracer, epibound)
        traced, traced_wall = execute(workload, groups, tracer=tracer)
        summary = tracer.summary()
        tracer.write_spans(work_dir / "spans.csv")
        (work_dir / "layers.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
        stats = workload.stats(traced)
        stats["tracing_overhead_frac"] = traced_wall / wall - 1.0
        digest, traced_digest = outputs_digest(workload, untraced), outputs_digest(workload, traced)
        if traced_digest != digest:
            failed += sum(c.spec.items for c in traced)
            messages.append("traced outputs differ from the untraced outputs")
        result.update(wall_s=wall, traced_wall_s=traced_wall, spans=len(tracer.spans),
                      layers=metrics.layer_values(summary, stats),
                      outputs_digest=digest, traced_outputs_digest=traced_digest)
        calls = untraced + traced
    import numpy
    import scipy

    result.update(
        size=workload.size(),
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
        calls=len(calls),
        attempted=sum(c.spec.items for c in calls),
        failed=failed,
        messages=messages[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
