#!/usr/bin/env python3
"""The a1weyl benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and from nowhere else.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Earlier lines give the details: input digest and sizes, the
tail percentile used, failures.  A full report goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import inputs as gen  # stdlib only; the modules that import a1weyl wait for import_library

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PER_PASS = 3

# Set-up in a fresh process: import the library and its CLI, then build the
# workload's bases.  Timed from inside the child, so interpreter start-up
# (cli.python_start_ms in the traced run) is left out.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import a1weyl, a1weyl.cli
make = {"baby": a1weyl.baby_semilattice, "toroidal": a1weyl.toroidal_semilattice,
        "pairwise": a1weyl.pairwise_semilattice}
for spec in sys.argv[2:]:
    family, nu = spec.split(":")
    a1weyl.ReflectableBase(make[family](int(nu))).roots
print(time.perf_counter() - t0, a1weyl.__file__)
"""


def import_library() -> None:
    """Import ``a1weyl`` from this checkout's ``src/``, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import a1weyl
    except ImportError as exc:
        sys.exit(f"bench: cannot import a1weyl from {SRC}: {exc}")
    if Path(a1weyl.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: a1weyl came from {a1weyl.__file__}, not from {SRC}")


def setup_once(workload: str) -> float:
    """Set-up time of one fresh process."""
    import workloads as wl

    specs = [f"{family}:{nu}" for family, nu in wl.base_specs(workload)]
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *specs],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up process failed:\n{proc.stderr}")
    seconds, origin = proc.stdout.split()
    if Path(origin).resolve().parent.parent != SRC:
        sys.exit(f"bench: set-up imported a1weyl from {origin}")
    return float(seconds)


def untraced(workload: str, seed: int, seconds: float) -> tuple:
    import workloads as wl

    # Set-up is sampled before every pass, each process on the CPU that is
    # fastest at its start, as the ops are, so its median spans the run like
    # the op times do; one warm-up process goes first.
    setup_once(workload)
    setups: list[float] = []

    def before_pass(cpu) -> None:
        for _ in range(SETUP_PER_PASS):
            cpu(force=True)
            setups.append(setup_once(workload))

    inps = gen.make_inputs(workload, seed)
    bases = wl.build_bases(workload)
    run, digest = wl.run_passes(workload, seed, inps, bases, wl.passes_for(workload, seconds),
                                wl.OVERRUN * seconds, before_pass)
    timing, details = wl.end_to_end(run)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": timing.get("ops_per_s", (0.0, "1/s")),
        "latency_ms_p50": timing.get("latency_ms_p50", (0.0, "ms")),
        "latency_ms_tail": timing.get("latency_ms_tail", (0.0, "ms")),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details.update({"inputs_sha256": digest, "inputs": gen.summary(inps),
                    "setup_samples": len(setups), "failed_ratio": run.failed / run.attempted})
    return run, metrics, details


def traced(workload: str, seed: int, seconds: float) -> tuple:
    import tracing

    run, layer, details = tracing.traced_run(workload, seed, seconds, SRC, OUT)
    details["failed_ratio"] = run.failed / run.attempted
    return run, {k: (v, tracing.LAYER_UNITS[k]) for k, v in layer.items()}, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="work to measure, in seconds of op time at the seed commit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    OUT.mkdir(exist_ok=True)

    measure = traced if args.trace else untraced
    run, metrics, details = measure(args.workload, args.seed, args.seconds)
    details.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "attempted": run.attempted, "failed": run.failed, "failures": run.failures})
    report = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"details": details, "metrics": metrics}, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for key in ("latency_ms_tail_percentile", "latency_samples", "passes", "op_seconds", "setup_samples",
                "failed_ratio",
                "inputs_sha256", "inputs_sha256_pass0", "inputs", "tracing_overhead", "spans_file"):
        if key in details:
            print(f"{key}: {json.dumps(details[key])}")
    for why in run.failures:
        print(f"failure: {why}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
