#!/usr/bin/env python3
"""Record the pinned output digests that ``run.py`` checks runs against.

    python3 perfbench/pins.py --scale standard --seeds 0-15 --ops 6

For every workload seed in ``--seeds`` this runs paper passes of
operations ``0 .. ops-1`` (each on its own empty store) and the first
``MIN_REQUESTS`` requests of the service stream, and merges their
digests into ``perfbench/pins.json``.  A run whose digest differs from
a pinned one counts that operation as failed; seeds without a pin are
still checked for cold/warm agreement and byte-identical resubmissions.
Re-pin only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import paper  # noqa: E402
import service  # noqa: E402
from run import Context  # noqa: E402


def seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=("standard", "small"), default="standard")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    parser.add_argument("--ops", type=int, default=6)
    args = parser.parse_args()
    path = os.path.join(BENCH, "pins.json")
    with open(path) as handle:
        pins = json.load(handle)
    paper_pins = pins.setdefault("paper", {}).setdefault(args.scale, {})
    service_pins = pins.setdefault("service", {}).setdefault(args.scale, {})
    work_root = os.path.join(os.path.dirname(BENCH), ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    ctx = Context(work_root)
    ctx.pins = {}
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        ctx.work = work
        for seed in args.seeds:
            for op in range(args.ops):
                seeds = paper.input_seeds(seed, op)
                store = os.path.join(work, "pin.sqlite")
                result = paper.run_pass(store, seeds, args.scale)
                paper.remove_store(store)
                if result.problems:
                    raise SystemExit(f"seed {seed} op {op}: {result.problems}")
                paper_pins[paper.seeds_key(seeds)] = result.digest
            # a fresh service and campaign file per seed, as in a run
            _, server, client = service.start_service(ctx, args.scale, seed)
            try:
                stream = service.Stream(client, seed, {}, corrupt=False)
                for _ in range(service.MIN_REQUESTS):
                    stream.send()
            finally:
                client.close()
                server.stop()
            if stream.checks.failed:
                raise SystemExit(f"service seed {seed}: {stream.checks.problems}")
            service_pins[str(seed)] = stream.digest.hexdigest()
            print(f"pinned seed {seed}", flush=True)
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
