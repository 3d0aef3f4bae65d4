"""``service_mix``: a resident tuning service driven over HTTP.

The service runs in its own process (``run_experiments.py --serve
--workers 2 --grid-db <file>``), so sweep jobs go through campaign
claims and SQLite writes and tune jobs through the BINLP solver.  One
closed-loop client on one keep-alive connection sends a seeded request
stream -- about 40% resubmitted sweeps, 40% fresh 16-config sweeps over
random buildable cache geometries, 20% ``verify=True`` tune jobs -- and
polls ``GET /jobs/<id>`` every ``POLL_S`` seconds until it sees ``done``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import (
    CACHE_LINE_SIZES_WORDS,
    CACHE_SET_COUNTS,
    CACHE_SET_SIZES_KB,
    base_configuration,
)
from repro.obs import disable_tracing, enable_tracing, span
from repro.platform import LiquidPlatform
from repro.workloads import WORKLOAD_ORDER, small_workloads, standard_workloads

from ledger import (Checks, HostClock, engine_delta, median, probe_layers,
                    registry_stage_totals, tail_mean)

#: Seconds between two polls of a job the client has not yet seen finish.
POLL_S = 0.005
#: Requests every run sends, and the prefix the stream digest pins.
MIN_REQUESTS = 100
#: Requests per block; ``pipeline_s`` is the median block wall time.
BLOCK = 25
CONFIGS_PER_SWEEP = 16
SETUP_REPS = 2
WORKERS = 2
REPLACEMENTS = ("random", "lrr", "lru")


class Server:
    """The service process: started, announced, stopped and reaped."""

    def __init__(self, root: str, env: Dict[str, str], db: str, scale: str, log: str):
        command = [sys.executable, os.path.join(root, "scripts", "run_experiments.py"),
                   "--serve", "--scale", scale, "--workers", str(WORKERS),
                   "--grid-db", db, "--port", "0"]
        self.log = log
        with open(log, "w") as stderr:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE,
                stderr=stderr, text=True)
        try:
            self.port = self._announced_port(deadline=time.monotonic() + 120)
        except BaseException:
            self.stop()
            raise

    def _announced_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                if line.startswith("tuning service on http://"):
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        with open(self.log) as handle:
            raise RuntimeError(f"service did not start:\n{handle.read()[-2000:]}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """One keep-alive HTTP/1.1 connection; every call's round trip is kept."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.rtts: List[float] = []

    def call(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        with span("service.http", method=method, path=path.split("/")[1]):
            start = time.perf_counter()
            payload = None if body is None else json.dumps(body)
            self.connection.request(method, path, body=payload,
                                    headers={"Content-Type": "application/json"})
            response = self.connection.getresponse()
            document = json.loads(response.read())
            self.rtts.append(time.perf_counter() - start)
        if response.status >= 300:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}: {document}")
        return document

    def run_job(self, kind: str, payload: dict) -> Tuple[float, dict, int]:
        """Submit one job and poll it to completion: (latency, snapshot, polls)."""
        start = time.perf_counter()
        job = self.call("POST", f"/{kind}", payload)
        polls = 0
        while True:
            snapshot = self.call("GET", f"/jobs/{job['id']}")
            polls += 1
            if snapshot["status"] in ("done", "failed"):
                return time.perf_counter() - start, snapshot, polls
            time.sleep(POLL_S)

    def close(self) -> None:
        self.connection.close()


def request_stream(seed: int) -> Iterator[Tuple[str, dict, Optional[int]]]:
    """The seeded request stream: (kind, payload, index of the sweep it repeats)."""
    rng = random.Random(f"service:{seed}")
    platform = LiquidPlatform()
    base = base_configuration()
    fresh: List[int] = []
    index = 0

    def geometry() -> dict:
        while True:
            config = {}
            for cache in ("icache", "dcache"):
                config[f"{cache}_sets"] = rng.choice(CACHE_SET_COUNTS)
                config[f"{cache}_setsize_kb"] = rng.choice(CACHE_SET_SIZES_KB)
                config[f"{cache}_linesize_words"] = rng.choice(CACHE_LINE_SIZES_WORDS)
                config[f"{cache}_replacement"] = rng.choice(REPLACEMENTS)
            if platform.fits(base.replace(**config)):
                return config

    while True:
        draw = rng.random()
        if draw < 0.4 and fresh:
            yield "repeat", None, rng.choice(fresh)
        elif draw < 0.8 or not fresh:
            fresh.append(index)
            yield "fresh", {"workload": rng.choice(WORKLOAD_ORDER),
                            "configs": [geometry() for _ in range(CONFIGS_PER_SWEEP)]}, None
        else:
            yield "tune", {"workload": rng.choice(WORKLOAD_ORDER),
                           "weights": {"runtime": round(rng.uniform(1, 100), 3),
                                       "resources": round(rng.uniform(1, 100), 3)},
                           "verify": True}, None
        index += 1


def canonical(snapshot: dict) -> bytes:
    return json.dumps(snapshot.get("results"), sort_keys=True).encode()


def start_service(ctx, scale: str, rep: int) -> Tuple[float, Server, Client]:
    """One set-up: start the service and make all four traces resident."""
    start = time.perf_counter()
    server = Server(ctx.root, ctx.env, os.path.join(ctx.work, f"grid{rep}.sqlite"),
                    scale, os.path.join(ctx.work, f"service{rep}.log"))
    client = Client(server.port)
    try:
        for name in WORKLOAD_ORDER:
            _, snapshot, _ = client.run_job("sweep", {"workload": name, "configs": [{}]})
            if snapshot["status"] != "done":
                raise RuntimeError(f"trace warm-up of {name} failed: {snapshot.get('error')}")
    except BaseException:
        client.close()
        server.stop()
        raise
    return time.perf_counter() - start, server, client


class Stream:
    """Drives the request stream and keeps every per-request observation."""

    def __init__(self, client: Client, seed: int, pins: Dict[str, str], corrupt: bool):
        self.client = client
        self.requests = request_stream(seed)
        self.seed = seed
        self.pins = pins
        self.corrupt = corrupt
        self.payloads: List[dict] = []
        self.answers: List[bytes] = []
        self.kinds: List[str] = []
        self.all_latency: List[float] = []
        self.polls: List[int] = []
        self.queue_wait: List[float] = []
        self.run_time: List[float] = []
        self.sweep_configs = 0
        self.digest = hashlib.sha256()
        self.checks = Checks()

    def __len__(self) -> int:
        return len(self.answers)

    def send(self) -> None:
        kind, payload, ref = next(self.requests)
        if kind == "repeat":
            payload = self.payloads[ref]
        route = "tune" if kind == "tune" else "sweep"
        with span(f"service.{kind}"):
            latency, snapshot, polls = self.client.run_job(route, payload)
        answer = canonical(snapshot)
        problems = []
        if snapshot["status"] != "done":
            problems.append(f"{kind} job ended {snapshot['status']}: {snapshot.get('error')}")
        if kind == "repeat" and self.corrupt and "repeat" not in self.kinds:
            answer = answer.replace(b"\"luts\": ", b"\"luts\": 1", 1)
        if kind == "repeat" and answer != self.answers[ref]:
            problems.append(f"resubmitted sweep {ref} answered differently")
        if route == "sweep":
            self.sweep_configs += len(payload["configs"])
        self.checks.operation(problems)
        self.payloads.append(payload)
        self.answers.append(answer)
        self.kinds.append(kind)
        self.all_latency.append(latency)
        self.polls.append(polls)
        self.queue_wait.append(snapshot["started_at"] - snapshot["submitted_at"])
        self.run_time.append(snapshot["finished_at"] - snapshot["started_at"])
        if len(self.answers) <= MIN_REQUESTS:
            self.digest.update(kind.encode() + answer)
            if len(self.answers) == MIN_REQUESTS:
                self.check_pin()

    def p50_ms(self, kind: str, first: int = 0) -> float:
        """Median latency of one request kind, from request ``first`` on."""
        return 1000 * median([latency for latency, seen in
                              zip(self.all_latency[first:], self.kinds[first:]) if seen == kind])

    def check_pin(self) -> None:
        pinned = self.pins.get(str(self.seed))
        if pinned is not None and self.digest.hexdigest() != pinned:
            self.checks.failed += 1
            self.checks.problems.append(
                f"stream digest {self.digest.hexdigest()[:12]} differs from the pinned {pinned[:12]}")


def what_ran(metrics: dict) -> Dict[str, object]:
    engine = metrics["engine"]
    stages = registry_stage_totals(metrics["registry"])
    return {"kernel_lane": engine["kernel_lane"],
            "arena": "engaged" if stages.get("arena_publish") else "skipped",
            "arena_skipped": engine["arena_skipped"],
            "pool": "pool" if engine["pool_spawns"] else "inline",
            "workers": engine["workers"],
            "supervisor": metrics["supervisor"]}


def run(kind: str, args, ctx):
    pins = ctx.pins.get("service", {}).get(args.scale, {})
    reps = 1 if args.trace else SETUP_REPS
    clock = HostClock()
    setups = []
    server = client = None
    try:
        for rep in range(reps):
            if server is not None:
                client.close()
                server.stop()
            seconds, server, client = start_service(ctx, args.scale, rep)
            # set-up is trace generation, interpreter-bound; the requests
            # below are dominated by HTTP round trips and stay unscaled
            setups.append(clock.scaled(seconds))
        stream = Stream(client, args.seed, pins, args.corrupt)
        if args.trace:
            return traced(stream, client, setups, args.scale)
        before = client.call("GET", "/metrics")
        blocks = []
        start = time.perf_counter()
        while len(stream) < MIN_REQUESTS or time.perf_counter() - start < args.seconds:
            began = time.perf_counter()
            for _ in range(BLOCK):
                stream.send()
            blocks.append(time.perf_counter() - began)
        measured = time.perf_counter() - start
        after = client.call("GET", "/metrics")
        rss = server.peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
    n = len(stream)
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "pipeline_s": (median(blocks), "s", len(blocks)),
        "request_p50_ms": (1000 * median(stream.all_latency), "ms", n),
        "request_tail10_ms": (1000 * tail_mean(stream.all_latency), "ms", n),
        "requests_per_s": (n / measured, "1/s", n),
        "peak_rss_mb": (rss, "MB", 1),
    }
    ran = dict(what_ran(after), requests=n,
               jobs=engine_delta(after["jobs"], before["jobs"]),
               unscaled_setup_s=median(clock.raw), reference_s=median(clock.references))
    return metrics, stream.checks, ran


def traced(stream: Stream, client: Client, setups, scale: str):
    """An untraced block, then a traced block of the stream, with /metrics deltas."""
    start = time.perf_counter()
    for _ in range(MIN_REQUESTS):
        stream.send()
    plain = time.perf_counter() - start
    first = len(stream)
    rtt_first = len(client.rtts)
    before = client.call("GET", "/metrics")
    tracer = enable_tracing()
    try:
        start = time.perf_counter()
        configs_before = stream.sweep_configs
        for _ in range(MIN_REQUESTS):
            stream.send()
        wall = time.perf_counter() - start
        tracer.drain()
    finally:
        disable_tracing()
    after = client.call("GET", "/metrics")
    engine = engine_delta(after["engine"], before["engine"])
    stages_after = registry_stage_totals(after["registry"])
    stages_before = registry_stage_totals(before["registry"])
    stages = {name: seconds - stages_before.get(name, 0.0)
              for name, seconds in stages_after.items()}
    run_time = sum(stream.run_time[first:])
    layer = {
        "functional.run_s": (stages.get("trace_generation", 0.0), "s"),
        "functional.pipeline_share": (stages.get("trace_generation", 0.0) / wall, "ratio"),
        "cachekernel.replay_s": (stages.get("cache_simulation", 0.0), "s"),
        "cachekernel.simulations": (engine.get("cache_simulations", 0), "count"),
        "cachekernel.host_decodes": (engine.get("host_decodes", 0), "count"),
        "timing.sweep_evaluate_s": (stages.get("sweep_evaluate", 0.0), "s"),
        "timing.sweep_evaluations": (engine.get("sweep_evaluations", 0), "count"),
        "service.evaluations_per_config": (
            engine.get("sweep_evaluations", 0) / max(1, stream.sweep_configs - configs_before),
            "ratio"),
        "store.hits": (engine.get("store_hits", 0), "count"),
        "store.hit_ratio": (engine.get("store_hits", 0) / max(1, engine.get("requested", 0)), "ratio"),
        "store.writes": (engine.get("store_writes", 0), "count"),
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
        "service.http_rtt_ms": (1000 * median(client.rtts[rtt_first:]), "ms"),
        "service.fresh_sweep_p50_ms": (stream.p50_ms("fresh", first), "ms"),
        "service.repeat_sweep_p50_ms": (stream.p50_ms("repeat", first), "ms"),
        "service.tune_p50_ms": (stream.p50_ms("tune", first), "ms"),
        "service.queue_wait_ms": (1000 * median(stream.queue_wait[first:]), "ms"),
        "service.run_ms": (1000 * median(stream.run_time[first:]), "ms"),
        "service.polls_per_request": (sum(stream.polls[first:]) / (len(stream) - first), "count"),
        "engine.unaccounted_share": (1.0 - sum(stages.values()) / run_time, "ratio"),
        "obs.trace_overhead_ratio": (wall / plain, "ratio"),
    }
    # the service's own traces are the default-seed workloads of its scale
    probes, problems = probe_layers(
        standard_workloads() if scale == "standard" else small_workloads())
    stream.checks.operation(problems)
    layer.update(probes)
    ran = dict(what_ran(after), traced_block_s=wall, untraced_block_s=plain, setup_s=setups)
    return layer, stream.checks, ran
