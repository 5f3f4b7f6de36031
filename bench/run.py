"""Benchmark of c3control, run from the root of a checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads: search, instrument-extensions, large-hierarchy (see README.md).
The program is imported from ``src/`` of the checkout and driven through
its public functions in this one process.

``--trace 0`` sets up the workload several times (import plus input
generation), then runs whole passes over the inputs until one more pass
would take the total past ``--seconds``, and reports the end-to-end
metrics. ``--trace 1`` alternates untraced passes with passes traced by
``tracing.Tracer`` and reports the per-layer metrics. Either way the first
pass is checked against ``oracles``, and every later pass must give the
same outputs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
SETUPS = 9


def load_program():
    """Import c3control afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "c3control" or m.startswith("c3control.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    c3 = importlib.import_module("c3control")
    importlib.import_module("c3control.hierarchy")
    if Path(c3.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"c3control was found at {c3.__file__}, not under {SRC}")
    return c3


def fits(times: list[float], seconds: float) -> bool:
    """Whether one more pass, as long as the median one, ends in time."""
    return sum(times) + statistics.median(times) <= seconds


def layer_metrics(tracer: Tracer, counter) -> dict[str, tuple[float, str]]:
    calls, self_s = tracer.calls, tracer.self_s
    return {
        "poset.construct_calls": (calls["poset.construct"], "count"),
        "poset.construct_s": (self_s["poset.construct"], "s"),
        "poset.canonical_calls": (calls["poset.canonical"], "count"),
        "poset.canonical_s": (self_s["poset.canonical"], "s"),
        "poset.extensions": (calls["poset.extensions"], "count"),
        "poset.extensions_s": (self_s["poset.extensions"], "s"),
        "search.self_s": (self_s["search"], "s"),
        "linearize.merge_calls": (calls["linearize.merge"], "count"),
        "linearize.merge_s": (self_s["linearize.merge"], "s"),
        "linearize.merge_tests": (counter.comparisons, "count"),
        "linearize.mro_calls": (calls["linearize.mro"], "count"),
        "linearize.mro_s": (self_s["linearize.mro"], "s"),
        "control.instrument_calls": (calls["control.instrument"], "count"),
        "control.instrument_s": (self_s["control.instrument"], "s"),
        "control.sort_keys_s": (self_s["control.sort_keys"], "s"),
        "hierarchy.roundtrip_s": (self_s["hierarchy.serialize"] + self_s["hierarchy.parse"], "s"),
    }


def median_metrics(samples: list[dict]) -> dict[str, tuple[float, str]]:
    """Per metric, the median over the traced passes; a count stays whole."""
    out = {}
    for name, (_value, unit) in samples[0].items():
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = (median(s[name][0] for s in samples), unit)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and one set-up, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.smoke)

    setups = []
    try:
        for _ in range(1 if args.smoke else SETUPS):
            t0 = perf_counter()
            c3 = load_program()
            inputs = workload.make(c3, args.seed)
            setups.append(perf_counter() - t0)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    first = None
    mismatched = 0
    passes = 0
    while not untraced or (args.trace and not traced) or fits(untraced + traced, args.seconds):
        tracing = bool(args.trace and len(untraced) > len(traced))
        tracer, counter = Tracer(), c3.StepCounter()
        gc.collect()
        if tracing:
            tracer.install()
        try:
            t0 = perf_counter()
            out = workload.run(c3, inputs, counter if tracing else None)
            dt = perf_counter() - t0
        finally:
            tracer.uninstall()
        passes += 1
        if tracing:
            traced.append(dt)
            layers.append(layer_metrics(tracer, counter))
        else:
            untraced.append(dt)
        if first is None:
            first = out
        else:
            mismatched += sum(a != b for a, b in zip(first, out)) + abs(len(first) - len(out))
        del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = workload.check(c3, inputs, first)
    problems = [msg for bad in report for msg in bad]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    if mismatched:
        print(f"check failed: {mismatched} outputs differ from the first pass", file=sys.stderr)
    failed = sum(1 for bad in report if bad) + mismatched

    run_s = statistics.median(untraced)
    if args.trace:
        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = (statistics.median(traced) - run_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_s, "s"),
            "items_per_s": (inputs.items / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    print(
        f"{args.workload}: {passes} passes, untraced {[round(t, 3) for t in untraced]}, "
        f"traced {[round(t, 3) for t in traced]}, setups {[round(t, 3) for t in setups]}",
        file=sys.stderr,
    )
    result = {
        "correct": not problems and not mismatched,
        "attempted": len(first) * passes,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
