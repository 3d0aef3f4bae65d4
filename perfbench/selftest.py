#!/usr/bin/env python3
"""Small-scale self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks, at ``--scale small``:

* every workload emits exactly the ``BENCHMARK.json`` metrics, with
  their units, in both ``--trace 0`` and ``--trace 1``, and passes its
  output checks;
* the simulated counts of the traced run repeat exactly for one seed;
* ``--corrupt`` (one altered record) trips the output checks;
* no process a run starts (service, set-up interpreters, resource
  trackers) and no ``/dev/shm`` segment outlives the run: the self-test
  adopts orphaned descendants, so any survivor shows as its child;
* a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes
  the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import reaper

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("paper_cold", "paper_warm", "service_mix")
SEED = 3
EXACT_COUNTS = ("functional.instructions", "cachekernel.simulations", "store.hits",
                "campaign.claim_rows")
#: Processes found alive (or unreaped) right after a benchmark run exited.
SURVIVORS: list = []


def bench(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--scale", "small", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    SURVIVORS.extend(f"{workload} --trace {trace}: pid {pid}" for pid in reaper.children())
    reaper.reap(grace=0.0)
    return done


def result(done) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def service_processes():
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "--serve" in cmdline and ".bench_work" in cmdline:
            found.append(f"{pid}: {cmdline}")
    return found


def main() -> int:
    if not reaper.adopt_orphans():
        print("selftest: cannot adopt orphans here; surviving processes go unseen")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
            print(f"FAIL: {message}", flush=True)

    shm_before = shm_segments()
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = result(bench(workload, trace))
            units = {name: metric["unit"] for name, metric in out["metrics"].items()}
            wanted = {metric["name"]: metric["unit"] for metric in spec[kind]}
            check(units == wanted, f"{workload} --trace {trace}: metrics/units differ from {kind}")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{workload} --trace {trace}: checks failed: {out}")
            if trace:
                again = result(bench(workload, 1))
                for name in EXACT_COUNTS:
                    check(out["metrics"][name] == again["metrics"][name],
                          f"{workload}: {name} differs between two runs of seed {SEED}")
        corrupted = result(bench(workload, 0, "--corrupt"))
        check(not corrupted["correct"] and corrupted["failed"] >= 1,
              f"{workload}: a corrupted record did not trip the output checks")
        print(f"ok {workload}", flush=True)
    check(not service_processes(), f"service processes survived: {service_processes()}")
    check(not SURVIVORS, f"processes outlived their run: {SURVIVORS}")
    leaked = shm_segments() - shm_before
    check(not leaked, f"/dev/shm segments survived: {sorted(leaked)}")

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("paper_cold", 0, cwd=bare)
        check(done.returncode != 0 and '"correct"' not in done.stdout,
              "benchmark without the library did not fail cleanly")

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
