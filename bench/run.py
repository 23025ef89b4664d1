"""Benchmark of the ncomplex library: one workload per run.

    python3 bench/run.py --workload queen-table|corpus|analyze \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory. Set-up (importing the package and generating the inputs)
is repeated several times and its median reported. Then the same pass runs
again and again until the next pass would end after S seconds, at least
once. Outputs are checked after the timed passes.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced passes alternate, and it holds
the per-layer metrics of the traced ones. Spans go to bench/out/.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7


def _purge_package():
    for name in [n for n in sys.modules if n == "ncomplex" or n.startswith("ncomplex.")]:
        del sys.modules[name]


def _set_up(workload, seed, tracer):
    """Import the package afresh and generate the inputs, SETUP_REPEATS
    times; the last set-up is traced when a tracer is given."""
    times = []
    workdir = OUT / f"{workload.name}-inputs"
    for i in range(SETUP_REPEATS):
        traced = tracer is not None and i == SETUP_REPEATS - 1
        _purge_package()
        start = perf_counter()
        for module in workload.modules:
            importlib.import_module(module)
        if traced:
            tracer.install()
        try:
            with tracer.phase("setup") if traced else nullcontext():
                inputs = workload.generate(seed, workdir)
        finally:
            if traced:
                tracer.remove()
        times.append(perf_counter() - start)
    return inputs, times


def _timed_pass(workload, inputs, tracer=None):
    if tracer is None:
        return workload.run_pass(inputs)
    tracer.install()
    try:
        with tracer.phase("pass"):
            return workload.run_pass(inputs)
    finally:
        tracer.remove()


def _measure(workload, inputs, seconds, tracer):
    """Passes (or untraced/traced pairs of passes) while the next one is
    expected to end within `seconds`; at least one."""
    plain, traced = [], []
    begin = perf_counter()
    while True:
        round_start = perf_counter()
        plain.append(_timed_pass(workload, inputs))
        if tracer is not None:
            traced.append(_timed_pass(workload, inputs, tracer))
        now = perf_counter()
        if now - begin + (now - round_start) > seconds:
            return plain, traced


def _pass_time(outcomes):
    """Time of one pass: each operation's median over the passes, summed.
    Noise on this machine comes in bursts, which a per-operation median
    discards better than a median of whole passes."""
    return sum(statistics.median(times) for times in zip(*(o.times for o in outcomes)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ncomplex" / "__init__.py").is_file():
        print(f"error: no library source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    inputs, setup_times = _set_up(workload, args.seed, tracer)
    package = sys.modules["ncomplex"]
    if not Path(package.__file__).resolve().is_relative_to(src):
        print(f"error: ncomplex imported from {package.__file__}", file=sys.stderr)
        return 2

    plain, traced = _measure(workload, inputs, args.seconds, tracer)
    outcomes = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for outcome in outcomes:
        for output in outcome.outputs:
            if isinstance(output, Exception):
                traceback.print_exception(output, file=sys.stderr)
    errors = workload.check(inputs, outcomes)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        overhead = _pass_time(traced) - _pass_time(plain)
        values = tracer.metrics(len(traced), overhead)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
        tracer.write(OUT / f"{stem}.spans.jsonl")
    else:
        wall = _pass_time(plain)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "instances_per_s": {"value": plain[0].instances / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result, sort_keys=True)
    (OUT / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(f"{workload.name}: passes {' '.join(f'{sum(o.times):.3f}' for o in plain)} s,"
          f" traced {' '.join(f'{sum(o.times):.3f}' for o in traced)} s,"
          f" set-ups {' '.join(f'{t:.4f}' for t in setup_times)} s", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
