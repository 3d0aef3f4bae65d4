"""Batch evaluator: dedup, consult the store, replay in shared-decode groups.

The expensive part of a measurement is the trace-driven cache simulation;
synthesis and the timing model are vectorised/analytic and cheap.  The
:class:`ParallelEvaluator` therefore plans a batch as follows:

1. collapse duplicate configurations (first-appearance order preserved);
2. answer what it can from the persistent
   :class:`~repro.engine.store.ResultStore` and the wrapped platform's
   in-process memo stores;
3. compute the set of *distinct missing cache simulations* across every
   workload in the batch and group them by their shared decode -- every
   group shares one ``(trace fingerprint, kind, linesize)`` key, so the
   trace is decoded into its columnar
   :class:`~repro.microarch.cachekernel.ColumnarTrace` view once and the
   whole configuration list replays against it in one
   :func:`~repro.microarch.cachekernel.simulate_many` call;
4. install the results into the platform's memo store and let the
   platform assemble the final measurements.

Every replay runs in-process.  Replays of the paper's grids take
milliseconds, so fanning them out to worker processes cost more in
start-up and transfer than it saved at every scale this repository
runs; parallelism belongs in trace generation, which dominates the
wall clock.  Because every cache job replays a fresh cold-cache state
whose PRNG is seeded from its own geometry, a batch is bit-identical to
the sequential path -- including RANDOM replacement.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.config.configuration import Configuration
from repro.engine.backend import EngineStats
from repro.engine.store import ResultStoreBase
from repro.fpga.report import ResourceReport
from repro.microarch.cachekernel import kernel_lane
from repro.microarch.statistics import ExecutionStatistics
from repro.obs.metrics import get_registry
from repro.obs.tracer import span
from repro.platform.liquid import (
    CacheJob,
    LiquidPlatform,
    PhaseJob,
    plan_job_groups,
)
from repro.platform.measurement import Measurement, PhasedMeasurement
from repro.workloads.base import Workload
from repro.workloads.phased import PhasedWorkload

__all__ = ["ParallelEvaluator"]


class ParallelEvaluator:
    """Batched :class:`~repro.engine.backend.EvaluationBackend` over a platform.

    Parameters
    ----------
    platform:
        The sequential build-and-measure platform to accelerate.  All
        memoisation and effort accounting stays on the platform, so the
        evaluator can be dropped into any consumer that previously held a
        bare :class:`~repro.platform.LiquidPlatform`.
    workers:
        Worker budget reported in :attr:`stats`; ``None`` uses the CPU
        count.  It selects no code path -- every replay runs in-process --
        and is kept for fanning trace generation out across workloads.
    store:
        Optional persistent result store (JSON-lines
        :class:`~repro.engine.store.ResultStore` or
        :class:`~repro.engine.store.SqliteResultStore`); measurements
        found there skip simulation entirely and newly computed ones are
        appended, which makes campaigns resumable.
    """

    def __init__(
        self,
        platform: Optional[LiquidPlatform] = None,
        *,
        workers: Optional[int] = None,
        store: Optional[ResultStoreBase] = None,
    ):
        self.platform = platform or LiquidPlatform()
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.store = store
        if store is not None:
            store.bind_platform(self.platform.device, self.platform.timing_parameters)
        self.stats = EngineStats(workers=self.workers)

    def close(self) -> None:
        """Release nothing: the evaluator holds no processes or segments.

        Kept so consumers can context-manage any backend uniformly; the
        store is owned by whoever opened it.
        """

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def _stage(self, name: str, **attrs):
        """Time one pipeline stage: a span plus the ``stage_seconds`` sum.

        The span and the accumulated stage share one clock read, so the
        span tree of a traced run reconciles with ``stats.stage_seconds``
        exactly (a property the observability tests assert).
        """
        with span(name, **attrs):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.stats.add_stage(name, time.perf_counter() - start)

    def _merge_host_metrics(self) -> None:
        """Fold the process-global metrics into this engine's registry.

        Library layers without an engine reference (store lock retries)
        count into the process registry; draining it at batch end parents
        those metrics under the run's :attr:`EngineStats.registry`
        without double counting across batches or evaluators.
        """
        deltas = get_registry().drain()
        if deltas:
            self.stats.registry.merge(deltas)

    # -- delegated single-shot API ---------------------------------------------------------

    @property
    def device(self):
        return self.platform.device

    def build(self, config: Configuration) -> ResourceReport:
        return self.platform.build(config)

    def profile(self, workload: Workload, config: Configuration) -> ExecutionStatistics:
        return self.platform.profile(workload, config)

    def fits(self, config: Configuration) -> bool:
        return self.platform.fits(config)

    def effort(self) -> Dict[str, int]:
        return self.platform.effort()

    def measure(self, workload: Workload, config: Configuration) -> Measurement:
        return self.measure_many(workload, [config])[0]

    # -- batched API -----------------------------------------------------------------------

    def measure_many(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Measure a batch for one workload; results align with ``configs``."""
        return self.measure_many_multi({workload: configs})[workload]

    def measure_many_multi(
        self, batches: Mapping[Workload, Sequence[Configuration]]
    ) -> Dict[Workload, List[Measurement]]:
        """Measure several workloads' batches as one plan.

        The cache simulations of *all* workloads are planned together, so
        a job shared between workloads' batches runs once.  Results are
        keyed by the workload *instances* (names may legitimately repeat
        across differently scaled variants of one benchmark).
        """
        start = time.perf_counter()
        self.stats.batches += 1

        # materialise every workload's trace up front so trace generation is
        # accounted as its own stage instead of leaking into cache planning
        with self._stage("trace_generation", workloads=len(batches)):
            for workload in batches:
                workload.trace()

        plan: List[Tuple[Workload, List[Configuration],
                         Dict[Configuration, Measurement]]] = []
        jobs: List[CacheJob] = []
        seen_jobs = set()
        for workload, configs in batches.items():
            missing, ready = self._plan_workload_batch(workload, configs)
            plan.append((workload, missing, ready))

            for job in self.platform.cache_requests(workload, missing):
                if job not in seen_jobs:
                    seen_jobs.add(job)
                    jobs.append(job)

        with self._stage("cache_simulation", jobs=len(jobs)):
            self._execute_cache_jobs(batches, jobs)

        with self._stage("model_build"):
            results: Dict[Workload, List[Measurement]] = {}
            for workload, missing, ready in plan:
                for config in missing:
                    measurement = self.platform.measure(workload, config)
                    ready[config] = measurement
                    if self.store is not None and self.store.put(workload, measurement):
                        self.stats.store_writes += 1
                results[workload] = [ready[c] for c in batches[workload]]

        self.stats.wall_seconds += time.perf_counter() - start
        self._merge_host_metrics()
        return results

    def _plan_workload_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> Tuple[List[Configuration], Dict[Configuration, Measurement]]:
        """Collapse duplicates and consult the store for one workload's batch.

        Returns the configurations still needing simulation (first-appearance
        order) and the measurements already answered, keyed by the
        configuration itself (hashing a :class:`Configuration` reuses its
        cached key hash, where hashing the raw key tuple would rewalk every
        parameter on each planning pass).  Shared by
        :meth:`measure_many_multi` and :meth:`measure_sweep` so the
        dedup/store accounting can never drift between the paths.
        """
        self.stats.requested += len(configs)
        seen = set()
        ready: Dict[Configuration, Measurement] = {}
        missing: List[Configuration] = []
        consult_store = self.store is not None
        for config in configs:
            if config in seen:
                self.stats.dedup_hits += 1
                continue
            seen.add(config)
            stored = self._from_store(workload, config) if consult_store else None
            if stored is not None:
                ready[config] = stored
                self.stats.store_hits += 1
            else:
                missing.append(config)
        return missing, ready

    def measure_sweep(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Measure a configuration grid through the broadcast-batched path.

        Planning matches :meth:`measure_many` exactly -- duplicates are
        collapsed, the persistent store is consulted, and the distinct
        missing cache simulations replay in shared-decode groups.  The
        difference is the assembly stage: instead of a per-config
        Python loop, the remaining configurations are evaluated in one
        :meth:`LiquidPlatform.measure_sweep
        <repro.platform.liquid.LiquidPlatform.measure_sweep>` broadcast,
        bit-identical to the scalar path.
        """
        start = time.perf_counter()
        self.stats.batches += 1

        with self._stage("trace_generation"):
            workload.trace()

        missing, ready = self._plan_workload_batch(workload, configs)

        with self._stage("cache_simulation"):
            # one planning pass: the pairs feed the platform sweep below so
            # it never rewalks the grid's parameter keys after the replays
            key_pairs, jobs = self.platform.cache_plan(workload, missing)
            self._execute_cache_jobs([workload], jobs)

        with self._stage("sweep_evaluate", configs=len(missing)):
            for config, measurement in zip(
                    missing, self.platform.measure_sweep(
                        workload, missing, cache_pairs=key_pairs)):
                ready[config] = measurement
                if self.store is not None and self.store.put(workload, measurement):
                    self.stats.store_writes += 1
            self.stats.sweep_batches += 1
            self.stats.sweep_evaluations += len(missing)

        self.stats.wall_seconds += time.perf_counter() - start
        self._merge_host_metrics()
        return [ready[config] for config in configs]

    # -- phased batches --------------------------------------------------------------------

    def measure_phases(
        self, workload: PhasedWorkload, configs: Sequence[Configuration]
    ) -> List[PhasedMeasurement]:
        """Measure a phased batch: overall measurements plus per-phase views.

        The overall measurements run through :meth:`measure_many`
        unchanged (store lookups, dedup and the shared-decode cache jobs
        all apply -- warm-chain totals are bit-identical to the
        single-shot concatenated replay, so persisted results stay
        valid).  The warm phase chains are planned as their own jobs,
        grouped by ``(trace fingerprint, kind, linesize)`` so each phase
        is decoded once per group and every configuration's cache state
        stays resident across its chain.
        """
        overall = self.measure_many(workload, configs)

        jobs = self.platform.phase_requests(workload, configs)
        with self._stage("phase_chain", jobs=len(jobs)):
            self._execute_phase_jobs(workload, jobs)
        self._merge_host_metrics()

        results = []
        for config, measurement in zip(configs, overall):
            icache, dcache = self.platform.phase_replays(workload, config)
            results.append(PhasedMeasurement(
                measurement=measurement,
                phases=workload.phase_names,
                icache=icache,
                dcache=dcache,
            ))
        return results

    def _execute_phase_jobs(
        self, workload: PhasedWorkload, jobs: List[PhaseJob]
    ) -> None:
        """Replay outstanding phase-chain jobs, one shared decode per group.

        Decodes are keyed by ``(kind, linesize, phase)`` only, never by
        configuration; :attr:`EngineStats.phase_decodes` counts each
        fresh decode so the phase benchmarks can assert the warm path
        re-decodes nothing as the configuration sweep grows.
        """
        if not jobs:
            return
        self.stats.phase_chains += len(jobs)
        with self._stage("phase_decode"):
            for kind, linesize in {(kind, cfg.linesize_bytes) for _, kind, cfg in jobs}:
                if not workload.has_phase_views(kind, linesize):
                    self.stats.phase_decodes += workload.phase_count
                workload.phase_views(kind, linesize)
        for job, result in self.platform.simulate_phase_chains(workload, jobs).items():
            self.platform.install_phase_run(job, result)

    # -- internals -------------------------------------------------------------------------

    def _from_store(self, workload: Workload, config: Configuration) -> Optional[Measurement]:
        if self.store is None:
            return None
        if self.platform.is_measured(workload, config):
            return None  # in-process memo is cheaper and already counted
        return self.store.get(workload, config)

    def _execute_cache_jobs(
        self, workloads: Iterable[Workload], jobs: List[CacheJob]
    ) -> None:
        """Replay outstanding cache jobs, one shared decode per group.

        Groups follow first-need order, so the plan is deterministic for
        a given batch; :attr:`EngineStats.host_decodes` counts the fresh
        columnar decodes the groups pay.
        """
        if not jobs:
            return
        self.stats.cache_simulations += len(jobs)
        self.stats.kernel_lane = kernel_lane()
        workloads_by_key = {w.fingerprint(): w for w in workloads}
        groups = plan_job_groups(jobs)
        self.stats.cache_groups += len(groups)
        for (workload_key, kind, linesize), group in groups.items():
            workload = workloads_by_key[workload_key]
            if not workload.trace().has_columnar_view(kind, linesize):
                self.stats.host_decodes += 1
            for job, statistics in self.platform.simulate_cache_jobs(
                    workload, group).items():
                self.platform.install_cache_run(job, statistics)
