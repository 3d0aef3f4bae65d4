#!/usr/bin/env python3
"""End-to-end benchmark: the paper pipeline, cold and warm, and the tuning service.

Run from the repository root::

    python3 perfbench/run.py --workload paper_warm --seed 1 --seconds 35 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``paper_warm``  -- full paper passes over a store filled during set-up;
* ``service_mix`` -- a closed-loop request mix against the resident service;
* ``paper_cold``  -- full paper passes on new inputs over an empty store.
  Not listed in ``BENCHMARK.json``: on a shared 2-CPU host a run needs
  30 s or more of passes to be steady, and three such workloads do not fit
  the benchmark's time limit.  The cold pass is still timed, as the
  set-up of ``paper_warm`` (its ``setup_s``).

Set-ups and paper passes are interpreter-bound, and on a shared host
their wall time drifts with the host's speed; ``--trace 0`` reports them
scaled by a reference loop timed around each of them
(``ledger.HostClock``), and prints the unscaled medians in the
"what ran" line.  Service request timings are dominated by HTTP round
trips and are reported as measured.

``--trace 0`` measures for ``--seconds`` with tracing off and prints the
end-to-end metrics; ``--trace 1`` makes one fixed-size traced run and
prints the per-layer ledger.  Human-readable lines (sample counts,
"what ran", failed checks) come first; the last stdout line is the JSON
result.  Output checks never raise: a failed check counts its operation
as failed and clears ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper_cold", "paper_warm", "service_mix")

#: Layers a workload never exercises; they are reported as 0.
IDLE_LAYERS = {
    "paper": ("service.evaluations_per_config", "service.fresh_sweep_p50_ms",
              "service.repeat_sweep_p50_ms", "service.tune_p50_ms", "service.http_rtt_ms",
              "service.queue_wait_ms", "service.run_ms", "service.polls_per_request"),
    "service": ("analysis.fig2_s", "analysis.fig34_s", "analysis.fig5_s",
                "analysis.fig7_s", "analysis.scalability_s", "analysis.ablation_s",
                "analysis.self_s"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("standard", "small"), default="standard",
                        help="workload scale (small: the benchmark's self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one answer before it is checked (self-test of the checks)")
    parser.add_argument("--prepare", choices=("paper_cold", "paper_warm"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.prepare and not args.workload:
        parser.error("--workload is required")
    return args


class Context:
    """Where a run may read and write, and what it found there at start."""

    def __init__(self, work_root: str):
        self.root = ROOT
        calibration = os.path.join(work_root, "arena_threshold.json")
        self.calibration_existed = os.path.exists(calibration)
        # keep the engine's per-host arena calibration inside the checkout
        os.environ["REPRO_ARENA_CALIBRATION_CACHE"] = calibration
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONUNBUFFERED="1",
                        PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        with open(os.path.join(BENCH, "pins.json")) as handle:
            self.pins = json.load(handle)
        self.work = ""

    @staticmethod
    def self_peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared(kind: str):
    """Metric name -> unit of one ``BENCHMARK.json`` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still unwinds, so the service process it started is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: the library is missing ({SRC}/repro); "
                 "run from the root of a full checkout")
    sys.path[:0] = [SRC, BENCH]
    import reaper

    reaper.adopt_orphans()
    try:
        return measure(args)
    finally:
        # runs on every way out (a SIGTERM too): no process the run started outlives it
        reaper.reap()


def measure(args: argparse.Namespace) -> int:
    import reaper

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    ctx = Context(work_root)

    import paper
    import service

    if args.prepare:
        print(json.dumps(paper.prepare(args.prepare, args.store, args.seed, args.scale)))
        return 0

    family = "service" if args.workload == "service_mix" else "paper"
    ctx.work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        module = service if family == "service" else paper
        metrics, checks, what_ran = module.run(args.workload, args, ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    killed = reaper.reap()
    what_ran = dict(what_ran, workload=args.workload, seed=args.seed, scale=args.scale,
                    calibration_cache_existed=ctx.calibration_existed,
                    processes_killed_at_exit=len(killed))
    print("what-ran " + json.dumps(what_ran, sort_keys=True))
    expected = declared("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = dict(metrics)
        for name in IDLE_LAYERS[family]:
            metrics.setdefault(name, (0.0, expected[name]))
        metrics["bench.failed_ratio"] = (checks.failed / checks.attempted, "ratio")
    units = {name: entry[1] for name, entry in metrics.items()}
    if units != expected:
        raise SystemExit(f"perfbench: emitted metrics {sorted(units.items())} "
                         f"do not match BENCHMARK.json {sorted(expected.items())}")
    for name, entry in metrics.items():
        samples = f"  (n={entry[2]})" if len(entry) > 2 else ""
        print(f"  {name:32s} {entry[0]:14.6g} {entry[1]}{samples}")
    for problem in checks.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if killed:
        print(f"CHECK FAILED: {len(killed)} processes outlived the run and were killed")
    print(json.dumps({
        "correct": checks.failed == 0 and not killed,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(entry[0]), "unit": entry[1]}
                    for name, entry in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
