"""Shared bookkeeping of the end-to-end benchmark: statistics, spans, checks.

Nothing here touches the program under test except through the plain
data it hands back (engine snapshots, ``/metrics`` documents and the
span records of :mod:`repro.obs`).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import VerificationError
from repro.obs import span


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean of the slowest ``share`` of the values (at least one value).

    Latencies polled over one HTTP/1.1 connection fall into modes one
    round trip apart, so a single high percentile jumps between modes
    as their shares move by a point; the tail mean moves smoothly.
    """
    if not values:
        return 0.0
    count = max(1, round(len(values) * share))
    return statistics.fmean(sorted(values)[-count:])


#: Iterations of the host-speed reference loop (roughly 0.1-0.2 s of pure Python).
REFERENCE_ITERATIONS = 2_000_000
#: Nominal reference-loop time: a scaled timing reads as the seconds the
#: work would take on a host where the loop takes this long.
NOMINAL_REFERENCE_S = 0.15


def reference_seconds() -> float:
    """Time one fixed pure-Python loop: the host's speed at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class HostClock:
    """Scales CPU-bound timings by the host's speed while they ran.

    On a shared host the same Python code runs up to half again as long
    in one window of minutes as in another, which swamps a few seconds'
    difference between two versions of the program.  The loop is timed
    before the first timing and after each one; a timing is scaled by
    the mean of the two loops around it.  Set-ups and paper passes are
    interpreter-bound like the loop, so both slow down together.  The
    loops run while the program is idle; a program change that leaves
    work running in the background slows the loop too, and part of its
    cost then hides in the scale -- ``raw`` keeps the unscaled timings.
    """

    def __init__(self):
        self.references = [reference_seconds()]
        self.raw: List[float] = []

    def scaled(self, seconds: float) -> float:
        """Scale a timing that ended just now."""
        self.references.append(reference_seconds())
        before, after = self.references[-2:]
        self.raw.append(seconds)
        return seconds * NOMINAL_REFERENCE_S / ((before + after) / 2)


@dataclass
class Checks:
    """Output checks of one run: failures are counted, never raised."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def operation(self, failures: Iterable[str]) -> None:
        """Account one operation; it fails when any of its checks failed."""
        failures = list(failures)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.problems.extend(failures)


def engine_delta(after: Mapping[str, object], before: Optional[Mapping[str, object]]) -> Dict[str, float]:
    """Numeric engine counters (``EngineStats.snapshot`` keys) gained between two reads."""
    delta: Dict[str, float] = {}
    for key, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            base = (before or {}).get(key, 0)
            delta[key] = value - (base if isinstance(base, (int, float)) else 0)
    stages_after = after.get("stage_seconds") or {}
    stages_before = (before or {}).get("stage_seconds") or {}
    for stage, seconds in stages_after.items():
        delta[f"stage.{stage}"] = seconds - stages_before.get(stage, 0.0)
    return delta


def add_deltas(*deltas: Mapping[str, float]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for delta in deltas:
        for key, value in delta.items():
            total[key] = total.get(key, 0.0) + value
    return total


def registry_stage_totals(registry: Mapping[str, object]) -> Dict[str, float]:
    """``stage.<name>`` histogram totals of a ``/metrics`` registry snapshot."""
    stages: Dict[str, float] = {}
    for key, value in registry.items():
        if key.startswith("stage.") and isinstance(value, dict):
            stages[key[len("stage."):]] = float(value.get("total", 0.0))
    return stages


def self_times(records: Sequence[object]) -> Dict[str, float]:
    """Per-span-name self time: each span's wall minus its direct children's.

    ``records`` are :class:`repro.obs.SpanRecord` objects of one process;
    a child is a span one level deeper on the same thread that starts
    inside its parent's interval.
    """
    by_lane: Dict[tuple, List[object]] = {}
    for record in records:
        by_lane.setdefault((record.pid, record.tid), []).append(record)
    selfs: Dict[str, float] = {}
    for lane in by_lane.values():
        lane.sort(key=lambda r: (r.ts, r.depth))
        for index, parent in enumerate(lane):
            end = parent.ts + parent.wall
            covered = 0.0
            for child in lane[index + 1:]:
                if child.ts > end:
                    break
                if child.depth == parent.depth + 1:
                    covered += child.wall
            selfs[parent.name] = selfs.get(parent.name, 0.0) + max(0.0, parent.wall - covered)
    return selfs


def probe_layers(workloads) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Call one layer's public function at a time on fresh workload objects."""
    totals = {"isa.assemble_s": 0.0, "functional.probe_s": 0.0,
              "workloads.fingerprint_s": 0.0, "workloads.verify_s": 0.0}
    instructions = 0
    problems = []
    for name, workload in workloads.items():
        for metric, step in (("isa.assemble_s", lambda: workload.program),
                             ("functional.probe_s", workload.run_functional),
                             ("workloads.fingerprint_s", workload.fingerprint),
                             ("workloads.verify_s", workload.verify)):
            with span(metric[:-2]):
                start = time.perf_counter()
                try:
                    outcome = step()
                except VerificationError as exc:
                    problems.append(f"probe verify {name}: {exc}")
                    outcome = None
                totals[metric] += time.perf_counter() - start
            if metric == "functional.probe_s":
                instructions += outcome.instruction_count
    probes = {metric: (seconds, "s") for metric, seconds in totals.items()}
    probes["functional.instructions"] = (instructions, "count")
    probes["functional.instr_per_s"] = (instructions / totals["functional.probe_s"], "instr/s")
    return probes, problems
