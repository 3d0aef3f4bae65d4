"""The input-keyed trace cache of the SQLite result store.

A warm evaluator must load each workload's execution trace from the
store instead of re-running the functional simulator, and the loaded
trace must be indistinguishable from a fresh one.  The suite checks:

* a cached trace equals a fresh one column by column (dtype included)
  and by fingerprint, for all four small workloads;
* every input the trace depends on -- input seed, instruction budget,
  the instruction stream, the simulator version stamp -- changes the key,
  so a changed input misses the cache;
* a truncated or corrupted entry is rejected by the fingerprint recheck,
  regenerated and rewritten, with identical measurements;
* a warm evaluator over a filled store never calls the simulator;
* stores racing to write one key leave one row;
* ``verify()`` catches a poisoned entry (a valid trace of other inputs
  stored under this key);
* the golden trace fingerprints in ``tests/golden/trace_golden.json``
  only move together with a ``TRACE_VERSION`` bump.

To re-record the golden fingerprints after an intentional trace change
(and a ``TRACE_VERSION`` bump)::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_cache.py
"""

import dataclasses
import json
import os
import pathlib
import sqlite3
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro.config import Replacement, base_configuration
from repro.engine import ParallelEvaluator, ResultStore, SqliteResultStore
from repro.errors import VerificationError
from repro.isa.instructions import Instruction, Op
from repro.microarch import functional
from repro.microarch.functional import FunctionalSimulator
from repro.obs import disable_tracing, enable_tracing
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload, BlastnWorkload, DrrWorkload, FragWorkload

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "trace_golden.json"

#: Fresh instances of the conftest's small workloads (same parameters).
SMALL = {
    "arith": lambda: ArithWorkload(iterations=200),
    "blastn": lambda: BlastnWorkload(database_length=1200, query_length=48, query_count=1),
    "drr": lambda: DrrWorkload(packet_count=150),
    "frag": lambda: FragWorkload(packet_count=4),
}

COLUMNS = ("pcs", "op_classes", "mem_addrs", "load_use_hazard",
           "cc_branch_hazard", "window_events")


def configs():
    base = base_configuration()
    return [
        base,
        base.replace(dcache_sets=2, dcache_replacement=Replacement.RANDOM),
        base.replace(dcache_sets=4, dcache_replacement=Replacement.LRU),
        base.replace(icache_setsize_kb=1, dcache_setsize_kb=1),
    ]


def fresh_workloads():
    return {name: make() for name, make in SMALL.items()}


def measure(path, workloads, grid):
    """One evaluator pass over ``workloads`` against the store at ``path``."""
    store = SqliteResultStore(path)
    try:
        with ParallelEvaluator(LiquidPlatform(), workers=1, store=store) as engine:
            results = engine.measure_many_multi({w: grid for w in workloads.values()})
            return [results[w] for w in workloads.values()], engine.stats
    finally:
        store.close()


def assert_traces_equal(cached, fresh):
    for column in COLUMNS:
        a, b = getattr(cached, column), getattr(fresh, column)
        assert a.dtype == b.dtype, column
        np.testing.assert_array_equal(a, b, err_msg=column)
    assert cached.name == fresh.name


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A store filled by a cold pass, plus that pass's measurements."""
    path = str(tmp_path_factory.mktemp("trace-cache") / "cold.sqlite")
    measurements, stats = measure(path, fresh_workloads(), configs())
    assert stats.trace_cache_writes == len(SMALL)
    assert stats.trace_cache_hits == stats.trace_cache_rejects == 0
    return path, measurements


def copy_store(path, tmp_path):
    """A private copy of a store file (tests that damage entries use one)."""
    target = str(tmp_path / "copy.sqlite")
    source = sqlite3.connect(path)
    with sqlite3.connect(target) as dest:
        source.backup(dest)
    source.close()
    return target


# -- equality ------------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_cached_trace_equals_fresh(name, small_workload_map, cold):
    fresh = small_workload_map[name]
    workload = SMALL[name]()
    assert workload.trace_key() == fresh.trace_key()
    store = SqliteResultStore(cold[0])
    try:
        trace, fingerprint = store.get_trace(workload.trace_key())
    finally:
        store.close()
    assert fingerprint == fresh.fingerprint()
    assert workload.adopt_trace(trace, fingerprint)
    assert workload.fingerprint() == fresh.fingerprint()
    assert_traces_equal(workload.trace(), fresh.trace())


# -- keying --------------------------------------------------------------------------------

def _changed_instruction(workload):
    """``workload`` with its last instruction replaced by a NOP."""
    program = workload.program
    assert program.instructions[-1].op is not Op.NOP
    workload._program = dataclasses.replace(
        program, instructions=program.instructions[:-1] + (Instruction(Op.NOP),))
    return workload


@pytest.mark.parametrize("change", [
    pytest.param(lambda: DrrWorkload(packet_count=150, seed=78), id="input-seed"),
    pytest.param(lambda: DrrWorkload(packet_count=150, max_instructions=1_999_999),
                 id="max-instructions"),
    pytest.param(lambda: _changed_instruction(DrrWorkload(packet_count=150)),
                 id="one-instruction"),
])
def test_input_change_misses_cache(change, cold):
    key = SMALL["drr"]().trace_key()
    changed = change().trace_key()
    assert changed != key
    store = SqliteResultStore(cold[0])
    try:
        assert store.get_trace(key) is not None
        assert store.get_trace(changed) is None
    finally:
        store.close()


def test_trace_version_bump_misses_cache(cold, monkeypatch):
    key = SMALL["arith"]().trace_key()
    monkeypatch.setattr(functional, "TRACE_VERSION", functional.TRACE_VERSION + 1)
    bumped = SMALL["arith"]().trace_key()
    assert bumped != key
    store = SqliteResultStore(cold[0])
    try:
        assert store.get_trace(bumped) is None
    finally:
        store.close()


def test_jsonl_store_caches_no_traces(small_workload_map):
    arith = small_workload_map["arith"]
    store = ResultStore()
    assert not store.put_trace(arith.trace_key(), arith.trace(), arith.fingerprint())
    assert store.get_trace(arith.trace_key()) is None


# -- damaged entries -----------------------------------------------------------------------

def _truncate(blob):
    return blob[:len(blob) // 2]


def _flip_first_byte(blob):
    return bytes([blob[0] ^ 0xFF]) + blob[1:]


@pytest.mark.parametrize("damage", [_truncate, _flip_first_byte],
                         ids=["truncated", "corrupted"])
def test_damaged_entry_is_rejected_regenerated_and_rewritten(damage, cold, tmp_path):
    path = copy_store(cold[0], tmp_path)
    key = SMALL["drr"]().trace_key()
    with sqlite3.connect(path) as conn:
        (blob,) = conn.execute("SELECT columns FROM traces WHERE key = ?", (key,)).fetchone()
        conn.execute("UPDATE traces SET columns = ? WHERE key = ?", (damage(blob), key))
        # measure from the traces, not from stored measurements
        conn.execute("DELETE FROM measurements")

    measurements, stats = measure(path, fresh_workloads(), configs())
    assert measurements == cold[1]
    assert (stats.trace_cache_hits, stats.trace_cache_rejects,
            stats.trace_cache_writes) == (len(SMALL) - 1, 1, 1)
    with sqlite3.connect(path) as conn:
        (rewritten,) = conn.execute(
            "SELECT columns FROM traces WHERE key = ?", (key,)).fetchone()
    assert rewritten == blob

    _, stats = measure(path, fresh_workloads(), configs())
    assert stats.trace_cache_hits == len(SMALL)
    assert stats.trace_cache_rejects == stats.trace_cache_writes == 0


# -- warm evaluation -----------------------------------------------------------------------

def test_warm_evaluator_never_runs_the_simulator(cold):
    path, expected = cold
    workloads = fresh_workloads()
    extra = [base_configuration().replace(dcache_sets=3, dcache_setsize_kb=2)]
    tracer = enable_tracing()
    try:
        with mock.patch.object(
                FunctionalSimulator, "run",
                side_effect=AssertionError("warm evaluator ran the functional simulator")):
            measurements, stats = measure(path, workloads, configs())
            # new configurations replay against the adopted (read-only)
            # columns, through both batch paths
            store = SqliteResultStore(path)
            try:
                with ParallelEvaluator(LiquidPlatform(), workers=1, store=store) as engine:
                    swept = engine.measure_sweep(workloads["blastn"], extra)
                    batched = engine.measure_many(workloads["drr"], extra)
                    assert engine.stats.cache_simulations > 0
            finally:
                store.close()
    finally:
        disable_tracing()
    assert measurements == expected
    assert (stats.trace_cache_hits, stats.trace_cache_writes) == (len(SMALL), 0)
    generation = next(r for r in tracer.records if r.name == "trace_generation")
    assert generation.attrs == {"workloads": len(SMALL), "cached": len(SMALL)}
    reference = LiquidPlatform()
    assert swept == [reference.measure(SMALL["blastn"](), extra[0])]
    assert batched == [reference.measure(SMALL["drr"](), extra[0])]


def test_stores_racing_on_one_key_leave_one_row(small_workload_map, tmp_path):
    """Writers on separate connections to one file: one row, one winner."""
    arith = small_workload_map["arith"]
    args = (arith.trace_key(), arith.trace(), arith.fingerprint())
    path = str(tmp_path / "shared.sqlite")
    stores = [SqliteResultStore(path) for _ in range(4)]
    start = threading.Barrier(len(stores))
    wrote = []

    def write(store):
        start.wait(timeout=10)
        wrote.append(store.put_trace(*args))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(store,)) for store in stores]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        for store in stores:
            store.close()
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(wrote) == [False, False, False, True]
    with sqlite3.connect(path) as conn:
        assert conn.execute("SELECT COUNT(*) FROM traces").fetchone() == (1,)


# -- stale-cache guard ---------------------------------------------------------------------

def test_verify_rechecks_an_adopted_trace(cold):
    store = SqliteResultStore(cold[0])
    workload = SMALL["frag"]()
    try:
        assert workload.adopt_trace(*store.get_trace(workload.trace_key()))
    finally:
        store.close()
    adopted = workload.trace()
    with mock.patch.object(FunctionalSimulator, "run", autospec=True,
                           side_effect=FunctionalSimulator.run) as run:
        workload.verify()
        workload.verify()
    assert run.call_count == 1
    assert workload.trace() is not adopted
    assert_traces_equal(workload.trace(), adopted)


def test_verify_rejects_a_poisoned_entry(tmp_path):
    # a valid DRR trace of other inputs stored under this workload's key:
    # its fingerprint names "drr" too, so the load-time recheck accepts it
    other = DrrWorkload(packet_count=150, seed=78)
    path = str(tmp_path / "poisoned.sqlite")
    store = SqliteResultStore(path)
    try:
        store.put_trace(SMALL["drr"]().trace_key(), other.trace(), other.fingerprint())
    finally:
        store.close()

    workload = SMALL["drr"]()
    _, stats = measure(path, {"drr": workload}, configs()[:1])
    assert stats.trace_cache_hits == 1
    assert workload.fingerprint() == other.fingerprint()
    with pytest.raises(VerificationError, match="cached trace"):
        workload.verify()
    # the fresh simulation replaced the poisoned columns
    assert workload.fingerprint() == SMALL["drr"]().fingerprint()
    assert workload.verify()


# -- golden fingerprints -------------------------------------------------------------------

def test_trace_fingerprints_match_golden(small_workload_map):
    actual = {
        "trace_version": functional.TRACE_VERSION,
        "fingerprints": {name: w.fingerprint()
                         for name, w in sorted(small_workload_map.items())},
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}; commit the diff")
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["trace_version"] != actual["trace_version"]:
        pytest.fail(
            f"TRACE_VERSION is {actual['trace_version']} but {GOLDEN_PATH.name} was "
            f"recorded under {golden['trace_version']}: re-record it with "
            f"REPRO_UPDATE_GOLDEN=1")
    moved = {name: (golden["fingerprints"].get(name), fingerprint)
             for name, fingerprint in actual["fingerprints"].items()
             if golden["fingerprints"].get(name) != fingerprint}
    assert not moved, (
        f"traces moved without a TRACE_VERSION bump: {moved}. Bump "
        f"repro.microarch.functional.TRACE_VERSION so no trace cache serves "
        f"traces of the old simulator, then re-record {GOLDEN_PATH.name} with "
        f"REPRO_UPDATE_GOLDEN=1")
