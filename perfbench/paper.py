"""``paper_cold`` and ``paper_warm``: the whole paper pipeline, in-process.

One operation is one paper pass -- the ``suite_main`` sequence of
``scripts/run_experiments.py``: Figures 1, 2, 3/4, 5, 6 and 7, the
headline claims, the scalability study and the approximation and solver
ablations -- on freshly built BLASTN/DRR/FRAG/ARITH workloads, through a
two-worker ``ParallelEvaluator`` over a SQLite store.  The pass calls
only the public ``repro.analysis`` drivers, so any work the program can
skip (a store hit, a cached trace) stays skipped.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import (
    approximation_ablation,
    dcache_exhaustive,
    dcache_study,
    headline_comparison,
    parameter_space_summary,
    perturbation_costs,
    resource_optimization,
    runtime_optimization,
    scalability_study,
    solver_ablation,
)
from repro.engine import ParallelEvaluator, open_store
from repro.errors import VerificationError
from repro.obs import disable_tracing, enable_tracing, span
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload, BlastnWorkload, DrrWorkload, FragWorkload

from ledger import (Checks, HostClock, add_deltas, engine_delta, median, probe_layers,
                    self_times, tail_mean)

#: Worker processes of the pass's evaluator (the paper pipeline's setting).
WORKERS = 2
#: Passes every timed run makes, however short ``--seconds`` is.
MIN_PASSES = 2
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPS = {"paper_cold": 3, "paper_warm": 2}

#: Table columns and first-cell fragments that carry host time: they are
#: left out of the output digest so it pins only simulated results.
HOST_TIME_COLUMNS = frozenset({"seconds"})
HOST_TIME_ROWS = ("wall-clock", "throughput")
ENGINE_TABLE = "Evaluation engine statistics"


def input_seeds(seed: int, op: int) -> Dict[str, int]:
    """BLASTN/DRR/FRAG input seeds of operation ``op`` under workload seed ``seed``."""
    rng = random.Random(f"paper:{seed}:{op}")
    return {name: rng.randrange(1, 1 << 30) for name in ("blastn", "drr", "frag")}


def seeds_key(seeds: Dict[str, int]) -> str:
    return ",".join(str(seeds[name]) for name in ("blastn", "drr", "frag"))


def build_workloads(seeds: Dict[str, int], scale: str):
    """Fresh workload objects: standard (benchmark) or small (self-test) scale."""
    if scale == "standard":
        return {"blastn": BlastnWorkload(seed=seeds["blastn"]),
                "drr": DrrWorkload(seed=seeds["drr"]),
                "frag": FragWorkload(seed=seeds["frag"]),
                "arith": ArithWorkload()}
    return {"blastn": BlastnWorkload(database_length=1500, query_length=64,
                                     query_count=1, seed=seeds["blastn"]),
            "drr": DrrWorkload(packet_count=200, seed=seeds["drr"]),
            "frag": FragWorkload(packet_count=6, seed=seeds["frag"]),
            "arith": ArithWorkload(iterations=300)}


def result_digest(results) -> str:
    """SHA-256 of every simulated number the drivers rendered.

    Covers each table's title, columns and rows -- statistics, chosen
    selections and configurations -- minus host-time columns/rows and
    the engine accounting tables.
    """
    digest = hashlib.sha256()
    for result in results:
        for table in result.tables:
            if table.title.startswith(ENGINE_TABLE):
                continue
            keep = [i for i, column in enumerate(table.columns)
                    if column not in HOST_TIME_COLUMNS]
            rows = [[row[i] for i in keep] for row in table.rows
                    if not any(word in row[0] for word in HOST_TIME_ROWS)]
            digest.update(json.dumps(
                [table.title, [table.columns[i] for i in keep], rows]).encode())
    return digest.hexdigest()


def corrupt(result) -> None:
    """Alter one simulated cell in place (self-test of the digest check)."""
    row = result.tables[0].rows[0]
    row[-1] = row[-1] + "0"


@dataclass
class PassResult:
    wall: float
    calls: Dict[str, float]
    digest: str
    engine: Dict[str, float]
    what_ran: Dict[str, object]
    problems: List[str] = field(default_factory=list)


def run_pass(store_path: str, seeds: Dict[str, int], scale: str, *,
             tamper: bool = False) -> PassResult:
    """One paper pass, then its untimed checks."""
    calls: Dict[str, float] = {}

    def call(name, driver, *args, **kwargs):
        with span(f"analysis.{name}"):
            start = time.perf_counter()
            result = driver(*args, **kwargs)
            calls[name] = calls.get(name, 0.0) + time.perf_counter() - start
        return result

    start = time.perf_counter()
    workloads = build_workloads(seeds, scale)
    store = open_store(store_path)
    with ParallelEvaluator(LiquidPlatform(), workers=WORKERS, store=store) as platform:
        fig1 = call("fig1", parameter_space_summary)
        fig2 = call("fig2", dcache_exhaustive, platform, workloads["blastn"], sweep=True)
        fig4 = call("fig34", dcache_study, platform, workloads, sweep=True)
        fig5 = call("fig5", runtime_optimization, platform, workloads)
        fig6 = call("fig6", perturbation_costs, fig5.data["results"]["blastn"])
        fig7 = call("fig7", resource_optimization, platform, workloads,
                    models=fig5.data["models"])
        head = call("headline", headline_comparison, fig5, fig7, fig4)
        # like run_experiments.py: the scalability study reports the effort
        # of a fresh evaluator without the store
        with ParallelEvaluator(LiquidPlatform(), workers=WORKERS) as fresh:
            scal = call("scalability", scalability_study, fresh, workloads["frag"])
        approx = call("ablation", approximation_ablation, fig5.data["results"]["drr"])
        solver = call("ablation", solver_ablation, fig5.data["models"]["blastn"])
        wall = time.perf_counter() - start
        main_stats = platform.stats.snapshot()
    close = getattr(store, "close", None)
    if close is not None:
        close()
    if tamper:
        corrupt(fig2)
    problems = []
    for name, workload in workloads.items():
        try:
            workload.verify()
        except VerificationError as exc:
            problems.append(f"verify {name}: {exc}")
    main = engine_delta(main_stats, None)
    engine = add_deltas(main, engine_delta(fresh.stats.snapshot(), None))
    # the store layer lives on the main evaluator only: the scalability
    # study's evaluator is store-less by design and always simulates
    for key in ("store_hits", "store_writes", "requested"):
        engine[f"main.{key}"] = main.get(key, 0)
    stages = main_stats["stage_seconds"]
    what_ran = {
        # a fully warm main evaluator replays nothing and records no lane
        "kernel_lane": main_stats["kernel_lane"] or fresh.stats.kernel_lane,
        "arena": "engaged" if stages.get("arena_publish") else "skipped",
        "arena_skipped": int(engine.get("arena_skipped", 0)),
        "pool": "pool" if engine.get("pool_spawns") else "inline",
        "workers": WORKERS,
        "store_backed_cache_simulations": int(main.get("cache_simulations", 0)),
    }
    return PassResult(
        wall=wall, calls=calls,
        digest=result_digest([fig1, fig2, fig4, fig5, fig6, fig7, head, scal,
                              approx, solver]),
        engine=engine, what_ran=what_ran, problems=problems)


def remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


# -- set-up ---------------------------------------------------------------------------------


def prepare(kind: str, store_path: str, seed: int, scale: str) -> Dict[str, object]:
    """Set-up body, run in a fresh interpreter (``run.py --prepare``).

    ``paper_cold`` opens an empty store; ``paper_warm`` fills it with
    one untimed pass of operation 0 and reports that pass's digest --
    the cold digest the warm passes must reproduce.
    """
    if kind == "paper_cold":
        store = open_store(store_path)
        close = getattr(store, "close", None)
        if close is not None:
            close()
        return {"digest": None, "problems": []}
    result = run_pass(store_path, input_seeds(seed, 0), scale)
    return {"digest": result.digest, "problems": result.problems}


def timed_setup(kind: str, store_path: str, seed: int, scale: str, root: str, env) -> Tuple[float, Dict]:
    """Run one set-up in a child interpreter; returns (seconds, its report)."""
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--prepare", kind, "--store", store_path, "--seed", str(seed),
               "--scale", scale]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=root, env=env, capture_output=True,
                          text=True, timeout=170)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {kind} failed:\n{done.stderr[-2000:]}")
    return seconds, json.loads(done.stdout.strip().splitlines()[-1])


# -- the runs -------------------------------------------------------------------------------


def digest_problems(digest: str, seeds, expected: Optional[str], pins: Dict[str, str]) -> List[str]:
    problems = []
    if expected is not None and digest != expected:
        problems.append("paper_warm digest differs from the paper_cold digest of the same seed")
    pinned = pins.get(seeds_key(seeds))
    if pinned is not None and digest != pinned:
        problems.append(f"digest {digest[:12]} differs from the pinned {pinned[:12]}")
    return problems


def run(kind: str, args, ctx) -> Tuple[Dict[str, Tuple[float, str, int]], Checks, Dict]:
    """Timed (``--trace 0``) or traced (``--trace 1``) run of one paper workload."""
    warm = kind == "paper_warm"
    pins = ctx.pins.get("paper", {}).get(args.scale, {})
    checks = Checks()
    reps = SETUP_REPS[kind] if not args.trace else 1
    clock = HostClock()
    setups = []
    expected = None
    warm_store = None
    for rep in range(reps):
        path = os.path.join(ctx.work, f"setup{rep}.sqlite")
        seconds, report = timed_setup(kind, path, args.seed, args.scale, ctx.root, ctx.env)
        setups.append(clock.scaled(seconds))
        if warm:
            expected = report["digest"]
            checks.operation(report["problems"] + digest_problems(
                report["digest"], input_seeds(args.seed, 0), None, pins))
            if warm_store is not None:
                remove_store(warm_store)
            warm_store = path
        else:
            remove_store(path)

    def one_pass(op: int, *, tamper: bool = False) -> PassResult:
        seeds = input_seeds(args.seed, 0 if warm else op)
        store = warm_store if warm else os.path.join(ctx.work, f"cold{op}.sqlite")
        result = run_pass(store, seeds, args.scale, tamper=tamper)
        if not warm:
            remove_store(store)
        checks.operation(result.problems + digest_problems(result.digest, seeds, expected, pins))
        return result

    if args.trace:
        return traced(kind, args, ctx, one_pass, setups, checks)

    passes: List[PassResult] = []
    walls = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(one_pass(len(passes), tamper=args.corrupt and not passes))
        walls.append(clock.scaled(passes[-1].wall))
    n = len(passes)
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "pipeline_s": (median(walls), "s", n),
        "request_p50_ms": (1000 * median(walls), "ms", n),
        "request_tail10_ms": (1000 * tail_mean(walls), "ms", n),
        "requests_per_s": (n / sum(walls), "1/s", n),
        "peak_rss_mb": (ctx.self_peak_rss_mb(), "MB", 1),
    }
    # a path that changed between passes shows every value it took
    seen = {key: sorted({str(p.what_ran[key]) for p in passes}) for key in passes[0].what_ran}
    what_ran = {key: value if len(seen[key]) == 1 else seen[key]
                for key, value in passes[0].what_ran.items()}
    what_ran.update(unscaled_setup_s=median(clock.raw[:len(setups)]),
                    unscaled_pipeline_s=median(clock.raw[len(setups):]),
                    reference_s=median(clock.references))
    return metrics, checks, what_ran


def traced(kind, args, ctx, one_pass, setups, checks):
    """A traced pass between two untraced passes of the same inputs, plus layer probes."""
    plain = [one_pass(0)]
    tracer = enable_tracing()
    try:
        result = one_pass(0)
        records = tracer.drain()
    finally:
        disable_tracing()
    plain.append(one_pass(0))
    untraced = (plain[0].wall + plain[1].wall) / 2
    seeds = input_seeds(args.seed, 0)
    probes, probe_problems = probe_layers(build_workloads(seeds, args.scale))
    checks.operation(probe_problems)
    engine = result.engine
    stages = {key[len("stage."):]: value for key, value in engine.items()
              if key.startswith("stage.")}
    selfs = self_times(records)
    wall = result.wall
    layer = {
        "functional.run_s": (stages.get("trace_generation", 0.0), "s"),
        "functional.pipeline_share": (stages.get("trace_generation", 0.0) / wall, "ratio"),
        **probes,
        "cachekernel.replay_s": (stages.get("cache_simulation", 0.0), "s"),
        "cachekernel.simulations": (engine.get("cache_simulations", 0), "count"),
        "cachekernel.host_decodes": (engine.get("host_decodes", 0), "count"),
        "timing.sweep_evaluate_s": (stages.get("sweep_evaluate", 0.0), "s"),
        "timing.sweep_evaluations": (engine.get("sweep_evaluations", 0), "count"),
        "store.hits": (engine["main.store_hits"], "count"),
        "store.hit_ratio": (engine["main.store_hits"] / max(1, engine["main.requested"]), "ratio"),
        "store.writes": (engine["main.store_writes"], "count"),
        "campaign.claim_batches": (engine.get("claim_batches", 0), "count"),
        "campaign.claim_rows": (engine.get("claim_rows", 0), "count"),
        "campaign.claim_conflicts": (engine.get("claim_conflicts", 0), "count"),
        "core.model_build_s": (stages.get("model_build", 0.0), "s"),
        "core.solve_s": (stages.get("solve", 0.0), "s"),
        "engine.requests": (engine.get("requested", 0), "count"),
        "engine.dedup_hits": (engine.get("dedup_hits", 0), "count"),
        "engine.parallel_simulations": (engine.get("parallel_simulations", 0), "count"),
        "engine.arena_skipped": (engine.get("arena_skipped", 0), "count"),
        "engine.pool_spawns": (engine.get("pool_spawns", 0), "count"),
        "supervisor.restarts": (engine.get("supervisor_restarts", 0), "count"),
        "engine.unaccounted_share": (1.0 - sum(stages.values()) / wall, "ratio"),
        "obs.trace_overhead_ratio": (wall / untraced, "ratio"),
        "analysis.self_s": (sum(v for k, v in selfs.items() if k.startswith("analysis.")), "s"),
    }
    for name in ("fig2", "fig34", "fig5", "fig7", "scalability", "ablation"):
        layer[f"analysis.{name}_s"] = (result.calls.get(name, 0.0), "s")
    what_ran = dict(result.what_ran, traced_pipeline_s=wall, untraced_pipeline_s=[p.wall for p in plain],
                    setup_s=setups)
    return layer, checks, what_ran
