"""Workload abstractions.

A workload is one of the paper's benchmark applications: it knows how to
build its program (via the assembler DSL), how to generate its synthetic
input data, what results the program is expected to produce (computed
independently in Python) and how to extract those results from a finished
simulation for verification.

The functional execution of a workload is configuration independent, so
the resulting :class:`~repro.microarch.trace.ExecutionTrace` is cached on
the workload instance and shared by every configuration evaluation -- this
is what makes the measurement campaign cheap enough to run hundreds of
configuration evaluations.  :meth:`Workload.trace_key` names a trace by
its *inputs* (program image, data image, instruction budget, simulator
version), so a persistent store can hand a trace back to a later process
(:meth:`Workload.adopt_trace`) without re-running the simulator.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import VerificationError
from repro.isa.program import Program
from repro.microarch import functional
from repro.microarch.functional import FunctionalSimulator, SimulationResult
from repro.microarch.trace import ExecutionTrace

__all__ = ["Workload"]


def _trace_fingerprint(name: str, trace: ExecutionTrace) -> str:
    """Content digest of ``trace`` as :meth:`Workload.fingerprint` reports it."""
    digest = hashlib.sha1()
    for array in (trace.pcs, trace.op_classes, trace.mem_addrs,
                  trace.load_use_hazard, trace.cc_branch_hazard,
                  trace.window_events):
        digest.update(np.ascontiguousarray(array))
    return f"{name}:{trace.instruction_count}:{digest.hexdigest()[:16]}"


class Workload(ABC):
    """One benchmark application with synthetic inputs and a reference output."""

    #: Short identifier used in tables (e.g. ``"blastn"``).
    name: str = "workload"
    #: One-line description for reports.
    description: str = ""
    #: The paper's characterisation ("memory-access intensive", "computation intensive").
    characterization: str = ""

    def __init__(self, *, max_instructions: int = 2_000_000):
        self.max_instructions = max_instructions
        self._program: Optional[Program] = None
        self._result: Optional[SimulationResult] = None
        self._trace: Optional[ExecutionTrace] = None
        self._fingerprint: Optional[str] = None
        #: Fingerprint of a trace installed by :meth:`adopt_trace` (``None``
        #: once the resident trace comes from this process's own simulation).
        self._adopted: Optional[str] = None

    # -- to be provided by concrete workloads -----------------------------------------

    @abstractmethod
    def build_program(self) -> Program:
        """Assemble the workload program (called once and cached)."""

    @abstractmethod
    def reference(self) -> Mapping[str, int]:
        """Expected observable results, computed independently in Python."""

    @abstractmethod
    def extract_results(self, result: SimulationResult) -> Mapping[str, int]:
        """Observable results of a finished simulation (same keys as :meth:`reference`)."""

    # -- cached execution -----------------------------------------------------------------

    @property
    def program(self) -> Program:
        """The assembled program (built lazily, cached)."""
        if self._program is None:
            self._program = self.build_program()
        return self._program

    def run_functional(self, *, force: bool = False) -> SimulationResult:
        """Execute the workload functionally (cached across calls).

        An adopted trace carries no architectural state, so the first call
        after :meth:`adopt_trace` simulates and replaces it with the fresh
        trace (the fingerprint is then recomputed from the fresh columns).
        """
        if self._result is None or force:
            simulator = FunctionalSimulator(self.program, max_instructions=self.max_instructions)
            self._result = simulator.run(trace_name=self.name)
            self._trace = self._result.trace
            if self._adopted is not None:
                self._adopted = None
                self._fingerprint = None
        return self._result

    def trace(self) -> ExecutionTrace:
        """The configuration-independent execution trace of this workload."""
        if self._trace is None:
            self.run_functional()
        return self._trace

    def has_trace(self) -> bool:
        """True when :meth:`trace` is answered without simulating."""
        return self._trace is not None

    def trace_key(self) -> Optional[str]:
        """Digest of everything this workload's trace depends on.

        Covers :data:`~repro.microarch.functional.TRACE_VERSION`, the
        name (the trace and its fingerprint carry it), the instruction
        budget, the memory layout, the entry point, the instruction
        stream and the initial data image -- the simulator's complete
        input.  Two workloads with equal keys produce identical traces,
        so a trace cache keyed by it never needs to run the simulator to
        find its entry.  ``None`` means "not cacheable".
        """
        program = self.program
        digest = hashlib.sha1()
        for part in (functional.TRACE_VERSION, self.name, self.max_instructions,
                     program.layout, program.entry_point, program.instructions):
            digest.update(repr(part).encode())
            digest.update(b"\0")
        digest.update(program.data)
        return digest.hexdigest()

    def adopt_trace(self, trace: ExecutionTrace, fingerprint: str) -> bool:
        """Install a cached trace instead of simulating; ``False`` rejects it.

        The fingerprint is recomputed from the loaded columns, so a
        truncated or corrupted cache entry is refused and the workload is
        left untouched.  :meth:`verify` re-runs the simulator for an
        adopted trace and fails if the fresh trace differs.
        """
        if _trace_fingerprint(self.name, trace) != fingerprint:
            return False
        self._trace = trace
        self._result = None
        self._fingerprint = fingerprint
        self._adopted = fingerprint
        return True

    def columnar_view(self, kind: str, linesize_bytes: int):
        """Cached columnar cache-kernel view of this workload's trace.

        Delegates to :meth:`ExecutionTrace.columnar_view
        <repro.microarch.trace.ExecutionTrace.columnar_view>`; the view is
        cached on the trace, so every cache geometry sharing a line size
        replays one decode.
        """
        return self.trace().columnar_view(kind, linesize_bytes)

    def features(self):
        """Memoised configuration-independent feature vector of the trace.

        Delegates to :meth:`ExecutionTrace.features
        <repro.microarch.trace.ExecutionTrace.features>`; this is the
        summary the broadcast-batched sweep path
        (:func:`~repro.microarch.timing.evaluate_many`) multiplies
        against a compiled configuration grid, so a sweep reduces the
        trace once, not once per configuration.
        """
        return self.trace().features()

    def fingerprint(self) -> str:
        """Content digest identifying this workload's execution trace.

        Measurement memoisation and the persistent result store key on
        this instead of :attr:`name`, so two same-named workloads with
        different inputs (e.g. a scaled-down test variant) can never
        alias each other's results.
        """
        if self._fingerprint is None:
            self._fingerprint = _trace_fingerprint(self.name, self.trace())
        return self._fingerprint

    # -- verification ------------------------------------------------------------------------

    def verify(self, result: Optional[SimulationResult] = None) -> Dict[str, int]:
        """Check the simulation results against the Python reference.

        Returns the extracted results on success and raises
        :class:`~repro.errors.VerificationError` on the first mismatch.
        A trace adopted from a cache is checked too: the simulator runs
        afresh, the fresh result replaces the adopted trace, and a fresh
        fingerprint that differs from the adopted one is an error (a
        stale or poisoned cache entry).
        """
        if result is None:
            adopted = self._adopted
            result = self.run_functional()
            if adopted is not None and self.fingerprint() != adopted:
                raise VerificationError(
                    f"{self.name}: cached trace {adopted} differs from the fresh "
                    f"simulation {self.fingerprint()}")
        expected = dict(self.reference())
        actual = dict(self.extract_results(result))
        for key, value in expected.items():
            if key not in actual:
                raise VerificationError(f"{self.name}: result {key!r} missing from simulation")
            if actual[key] != value:
                raise VerificationError(
                    f"{self.name}: result {key!r} mismatch: expected {value}, got {actual[key]}")
        return actual

    # -- reporting ------------------------------------------------------------------------------

    def mix_summary(self) -> Dict[str, float]:
        """Instruction-mix characterisation of the workload."""
        return self.trace().mix_summary()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
