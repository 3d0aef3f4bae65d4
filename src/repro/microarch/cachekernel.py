"""Columnar cache-simulation kernel: decode once, replay many.

This module is the pure-function layer underneath
:class:`~repro.microarch.cache.Cache`.  It splits trace-driven cache
simulation into two stages with very different sharing profiles:

* **Decode** (:func:`decode_trace`) is a property of the *trace and the
  line size only*: byte addresses become cache-line numbers, and maximal
  runs of consecutive accesses to the same line are compressed into one
  *event* each.  Within such a run the line's presence cannot change
  except at the run's first read (write misses do not allocate in the
  LEON2 write-through, no-write-allocate data cache), so an event fully
  describes the run with its line number, the position of its first
  read, the number of leading writes and its last access position.  A
  decoded :class:`ColumnarTrace` is therefore shared by *every* cache
  geometry and replacement policy with that line size -- the paper's
  exhaustive dcache sweep decodes each workload trace twice (one per
  line size) instead of once per configuration.

* **Replay** (:func:`replay`) turns the surviving potential-miss events
  into hit/miss statistics for one concrete geometry.  Direct-mapped
  caches replay as pure NumPy reductions (a stable sort by set index
  plus a running maximum).  Set-associative caches replay
  *rank-synchronously*: events are grouped by set, and iteration ``k``
  applies the ``k``-th event of every set at once with vectorised
  LRU / LRR(FIFO) / RANDOM victim selection, so the Python-level loop
  count is the maximum events-per-set, never the access count.

Both paths are bit-identical to the scalar per-access reference loop in
:meth:`Cache.simulate(vectorized=False) <repro.microarch.cache.Cache.simulate>`:
statistics, final tag/age/FIFO state, and the seeded RANDOM stream
(victims are pre-drawn positionally, one per *access*, exactly like the
reference) all match, which the property tests in
``tests/test_cache_vectorized.py`` enforce for every policy and
associativity.

Replay is *warm-chainable*: :func:`replay` mutates the
:class:`KernelState` it is given, and the run/chain compression algebra
is closed under trace splitting -- a same-line run cut at a phase
boundary replays to the same statistics and state as the uncut run.
:func:`replay_chain` exploits this to replay a sequence of
:class:`ColumnarTrace` views (program phases) against one
continuously-warm cache; the result is bit-identical -- statistics,
tag/age/FIFO state, and the seeded RANDOM victim stream (NumPy bounded
integer draws consume the bit stream value by value, so per-phase
batches concatenate to the single-shot batch) -- to replaying the
concatenated trace in one shot, which ``tests/test_warm_replay.py``
property-tests against the scalar warm oracle.

**Kernel lanes.**  The set-associative replay has two interchangeable
implementations, selected by the ``REPRO_KERNEL_LANE`` environment
variable (or an explicit ``lane=`` argument) and both meant to be
bit-identical to the scalar reference (a known cross-config LRU defect
is pinned by a strict ``xfail`` in ``tests/test_crossconfig_replay.py``):

* ``crossconfig`` (default) -- :func:`simulate_many` merges every
  associative configuration of a batch into one rank-synchronous pass
  through :func:`replay_many_associative`: tag/age/FIFO state is held
  as one stacked ``(configs, sets, ways)`` array (sets and ways padded
  to the batch maxima) and the per-rank event streams of all
  configurations are concatenated, so the Python-level loop runs
  ``max_c ranks(c)`` times for the whole group instead of
  ``sum_c ranks(c)`` -- on the paper's geometry-dense Figure-2 grid
  that is a ~4-5x cut in loop trips.
* ``numpy`` -- the per-configuration rank-synchronous replay (the
  pre-cross-config behaviour; also what single :func:`replay` calls
  use regardless of lane).

:func:`_replay_events_loop` is a third, plain-Python formulation (one
scalar step per run-compressed event) that the property tests hold to
the same scalar oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.leon_space import Replacement
from repro.errors import ConfigurationError
from repro.microarch.cache import CacheConfig, CacheStatistics
from repro.obs.tracer import span

__all__ = [
    "ColumnarTrace",
    "KERNEL_LANE_ENV",
    "KernelState",
    "LANE_CROSSCONFIG",
    "LANE_NUMPY",
    "PhaseReplay",
    "decode_trace",
    "fresh_state",
    "kernel_lane",
    "replay",
    "replay_chain",
    "replay_many_associative",
    "replay_phases",
    "simulate_many",
]

#: Environment knob selecting the set-associative replay implementation.
KERNEL_LANE_ENV = "REPRO_KERNEL_LANE"
#: Per-configuration rank-synchronous NumPy replay (the pre-lane behaviour).
LANE_NUMPY = "numpy"
#: Batched rank-synchronous replay shared across a whole config group.
LANE_CROSSCONFIG = "crossconfig"
_LANES = (LANE_NUMPY, LANE_CROSSCONFIG)
DEFAULT_LANE = LANE_CROSSCONFIG


@dataclass(frozen=True)
class ColumnarTrace:
    """Run-compressed columnar view of one address trace at one line size.

    One *event* per maximal run of consecutive same-line accesses.  The
    positions stored per event index into the original access stream, so
    tick accounting and the positional RANDOM victim stream of the
    scalar reference are reproducible without the uncompressed arrays.
    """

    #: Line size the addresses were decoded against.
    linesize_bytes: int
    #: Length of the original access stream.
    accesses: int
    #: Number of writes in the original access stream.
    write_accesses: int
    #: Cache-line number of each event's run.
    event_line: np.ndarray
    #: Original position of the run's first read; ``accesses`` when the run has none.
    event_first_read: np.ndarray
    #: Original position of the run's last access.
    event_last_pos: np.ndarray
    #: Number of writes preceding the run's first read (the whole run if no read).
    event_writes_before_read: np.ndarray
    #: Cached per-set potential-miss views, keyed by ``lines_per_way``.
    _set_views: Dict[int, "_SetView"] = field(
        default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.event_line.shape[0])

    def set_view(self, lines_per_way: int) -> "_SetView":
        """Chain-collapsed per-set event stream for one set count (cached).

        Shared by every associativity and replacement policy with this
        ``lines_per_way``: the mapping of lines to sets -- and therefore
        which events can possibly miss -- depends only on the set count.
        """
        view = self._set_views.get(lines_per_way)
        if view is None:
            view = _build_set_view(self, lines_per_way)
            self._set_views[lines_per_way] = view
        return view

    @property
    def event_has_read(self) -> np.ndarray:
        """Boolean mask of events whose run contains at least one read."""
        return self.event_first_read < self.accesses

    @property
    def compression(self) -> float:
        """Accesses per event (1.0 means no consecutive same-line runs)."""
        return self.accesses / len(self) if len(self) else 1.0


def decode_trace(
    addresses: np.ndarray,
    writes: Optional[np.ndarray] = None,
    *,
    linesize_bytes: int,
) -> ColumnarTrace:
    """Decode an address trace into a :class:`ColumnarTrace` for one line size.

    ``writes`` is the optional store mask aligned with ``addresses``
    (omitted for the read-only instruction-cache case).  The result is
    geometry- and policy-independent: every configuration with this line
    size replays the same decoded view.
    """
    with span("decode", linesize=linesize_bytes) as decode_span:
        view = _decode_trace(addresses, writes, linesize_bytes=linesize_bytes)
        decode_span.set(accesses=view.accesses, events=len(view))
        return view


def _decode_trace(
    addresses: np.ndarray,
    writes: Optional[np.ndarray],
    *,
    linesize_bytes: int,
) -> ColumnarTrace:
    addresses = np.asarray(addresses, dtype=np.int64)
    n = len(addresses)
    if writes is None:
        writes_arr = np.zeros(n, dtype=bool)
    else:
        writes_arr = np.asarray(writes, dtype=bool)
        if writes_arr.shape != addresses.shape:
            raise ConfigurationError("writes mask must match the address trace length")
    write_total = int(np.count_nonzero(writes_arr))
    lines = addresses // linesize_bytes
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return ColumnarTrace(linesize_bytes, 0, 0, empty, empty, empty, empty)

    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = lines[1:] != lines[:-1]
    run_start = np.flatnonzero(boundary)
    run_end = np.append(run_start[1:], n)  # exclusive

    positions = np.arange(n, dtype=np.int64)
    # first read of each run: min over read positions, n as "no read" sentinel
    read_positions = np.where(writes_arr, n, positions)
    first_read = np.minimum.reduceat(read_positions, run_start)
    # every access before a run's first read is a write by construction
    writes_before = np.where(first_read < n, first_read - run_start, run_end - run_start)

    return ColumnarTrace(
        linesize_bytes=linesize_bytes,
        accesses=n,
        write_accesses=write_total,
        event_line=lines[run_start],
        event_first_read=first_read,
        event_last_pos=run_end - 1,
        event_writes_before_read=writes_before,
    )


@dataclass
class KernelState:
    """Mutable replay state, layout-compatible with :class:`Cache`'s stores."""

    #: ``(lines_per_way, ways)`` tag store; -1 marks an invalid way.
    tags: np.ndarray
    #: Per-way replacement ages (LRU recency; fill tick otherwise).
    age: np.ndarray
    #: Per-set LRR/FIFO replacement pointer.
    fifo: np.ndarray
    #: Accesses replayed so far (ages are ticks: position + tick + 1).
    tick: int = 0
    #: RANDOM-victim stream position, carried so a chained replay keeps
    #: drawing where the previous phase stopped (``None`` for callers that
    #: manage their own generator, e.g. :class:`~repro.microarch.cache.Cache`).
    rng: Optional[np.random.Generator] = None


def fresh_state(config: CacheConfig) -> KernelState:
    """Cold-cache state for one geometry (what a fresh :class:`Cache` holds)."""
    lines = config.lines_per_way
    return KernelState(
        tags=np.full((lines, config.ways), -1, dtype=np.int64),
        age=np.zeros((lines, config.ways), dtype=np.int64),
        fifo=np.zeros(lines, dtype=np.int64),
        tick=0,
        rng=np.random.default_rng(config.seed),
    )


def kernel_lane(requested: Optional[str] = None) -> str:
    """Resolve the effective set-associative replay lane.

    ``requested`` overrides the :data:`KERNEL_LANE_ENV` environment
    variable; an empty/unset value means the default
    (:data:`LANE_CROSSCONFIG`).  The returned value is what will
    actually run, which :class:`~repro.engine.backend.EngineStats`
    records as ``kernel_lane`` for auditability.
    """
    lane = requested if requested is not None else os.environ.get(KERNEL_LANE_ENV, "")
    lane = (lane or DEFAULT_LANE).strip().lower()
    if lane not in _LANES:
        raise ConfigurationError(
            f"unknown kernel lane {lane!r}; choose one of {sorted(_LANES)}")
    return lane


def replay(
    view: ColumnarTrace,
    config: CacheConfig,
    state: Optional[KernelState] = None,
    rng: Optional[np.random.Generator] = None,
) -> CacheStatistics:
    """Replay a decoded trace against one geometry, mutating ``state``.

    With ``state``/``rng`` omitted the replay starts from a cold cache
    with the geometry's own seeded PRNG -- exactly what a fresh
    :class:`~repro.microarch.cache.Cache` would do.  Passing the state of
    a previous replay continues against the warm cache (its own ``rng``
    keeps the RANDOM victim stream in step); an explicit ``rng`` argument
    overrides the state's generator.  A single replay has nothing to
    share across configurations, so every lane replays it the same way.
    """
    if view.linesize_bytes != config.linesize_bytes:
        raise ConfigurationError(
            f"decoded view has linesize {view.linesize_bytes}, "
            f"configuration expects {config.linesize_bytes}")
    if state is None:
        state = fresh_state(config)
    if rng is None:
        rng = state.rng if state.rng is not None else np.random.default_rng(config.seed)
    n = view.accesses
    # the scalar reference pre-draws one victim per *access* regardless of
    # policy or use; match it so the stream position stays identical
    random_victims = rng.integers(0, config.ways, size=n) if config.ways > 1 else None

    if n == 0:
        return CacheStatistics(0, 0, 0, 0, 0)
    if config.ways == 1:
        read_misses, write_misses = _replay_direct_mapped(view, config, state)
    else:
        read_misses, write_misses = _replay_set_associative(
            view, config, state, random_victims)
    state.tick += n
    return CacheStatistics(
        accesses=n,
        read_accesses=n - view.write_accesses,
        write_accesses=view.write_accesses,
        read_misses=read_misses,
        write_misses=write_misses,
    )


def simulate_many(
    view: ColumnarTrace,
    configs: Sequence[CacheConfig],
    *,
    lane: Optional[str] = None,
) -> List[CacheStatistics]:
    """Replay one decoded trace against many cold-cache configurations.

    Equivalent to ``[Cache(c).simulate(addresses, writes) for c in configs]``
    but the columnar decode is paid once for the whole batch.  Every
    configuration must share the view's line size (group by line size
    before calling; :meth:`LiquidPlatform.simulate_cache_jobs
    <repro.platform.liquid.LiquidPlatform.simulate_cache_jobs>` does).

    Under the default :data:`LANE_CROSSCONFIG` lane the batch's
    associative configurations (``ways > 1``) additionally share the
    rank-synchronous replay loop itself through
    :func:`replay_many_associative`; direct-mapped configurations always
    replay individually (their replay is loop-free NumPy reductions).
    """
    resolved = kernel_lane(lane)
    configs = list(configs)
    with span("replay", configs=len(configs), lane=resolved,
              linesize=view.linesize_bytes):
        if resolved == LANE_CROSSCONFIG and view.accesses and len(view):
            associative = [i for i, c in enumerate(configs) if c.ways > 1]
            if len(associative) >= 2:
                results: List[Optional[CacheStatistics]] = [None] * len(configs)
                stacked, _ = replay_many_associative(
                    view, [configs[i] for i in associative])
                for i, statistics in zip(associative, stacked):
                    results[i] = statistics
                for i, config in enumerate(configs):
                    if results[i] is None:
                        results[i] = replay(view, config)
                return results
        return [replay(view, config) for config in configs]


def replay_chain(
    views: Sequence[ColumnarTrace],
    config: CacheConfig,
    state: Optional[KernelState] = None,
) -> Tuple[List[CacheStatistics], KernelState]:
    """Replay a sequence of phase views against one continuously-warm cache.

    Every view must share the configuration's line size.  Returns the
    per-phase statistics and the final :class:`KernelState`, which can be
    passed back in to extend the chain.  The chain is bit-identical --
    per-phase statistics sum to the one-shot statistics, and the final
    tag/age/FIFO state and RANDOM victim stream match exactly -- to
    replaying the concatenated trace in a single :func:`replay` call:
    run compression never merges events across phase boundaries, but a
    run split at a boundary replays to the same misses and state because
    presence can only change at a run's first read, which stays at the
    same global position.
    """
    if state is None:
        state = fresh_state(config)
    statistics = [replay(view, config, state=state) for view in views]
    return statistics, state


@dataclass(frozen=True)
class PhaseReplay:
    """Per-phase statistics of one geometry, warm-chained and cold-started.

    ``warm`` replays the phases against one continuously-warm cache (the
    deployment view: cache state carries across program phases);
    ``cold`` replays each phase from a cold cache with a freshly seeded
    PRNG (the paper's per-measurement view).  The warm statistics sum to
    the single-shot replay of the concatenated trace; the cold ones do
    not, and the difference is exactly the phase-transition effect the
    phase benchmarks report.
    """

    warm: Tuple[CacheStatistics, ...]
    cold: Tuple[CacheStatistics, ...]

    def warm_total(self) -> CacheStatistics:
        """Sum of the warm per-phase statistics (== the one-shot replay)."""
        return CacheStatistics(
            accesses=sum(s.accesses for s in self.warm),
            read_accesses=sum(s.read_accesses for s in self.warm),
            write_accesses=sum(s.write_accesses for s in self.warm),
            read_misses=sum(s.read_misses for s in self.warm),
            write_misses=sum(s.write_misses for s in self.warm),
        )


def replay_phases(
    views: Sequence[ColumnarTrace], config: CacheConfig
) -> PhaseReplay:
    """Warm-chained plus cold-started per-phase replay of one geometry.

    The expensive part -- decoding each phase -- is shared between the
    two replays (and with every other geometry at this line size), so
    asking for both costs two cheap replays of the same views.
    """
    with span("replay_phases", phases=len(views), ways=config.ways):
        warm, _ = replay_chain(views, config)
        return PhaseReplay(
            warm=tuple(warm),
            cold=tuple(replay(view, config) for view in views),
        )


# -- per-set potential-miss views --------------------------------------------------------


@dataclass(frozen=True)
class _SetView:
    """Chain-collapsed per-set event stream for one ``lines_per_way``.

    Events are grouped by set (per-set temporal order preserved) and
    maximal chains of *consecutive same-line events within a set* are
    collapsed into one potential-miss event each: between chain members
    no other line of that set is accessed, so the line's presence cannot
    change except at the chain's first read -- the same algebra that
    collapses same-line runs at decode time, applied after the
    set mapping is known.  Arrays come in two orderings: set-grouped
    (``set_index`` .. ``has_read``, used by the direct-mapped replay) and
    rank-ordered (``r_*``, used by the rank-synchronous set-associative
    replay, where slice ``k`` of ``rank_bounds`` holds every set's
    ``k``-th event).
    """

    # set-grouped order: each populated set's events, concatenated
    set_index: np.ndarray
    tag: np.ndarray
    first_read: np.ndarray
    last_pos: np.ndarray
    w_pre: np.ndarray
    has_read: np.ndarray
    group_starts: np.ndarray
    group_start_per_event: np.ndarray
    # rank order: the k-th event of every set is contiguous
    rank_bounds: np.ndarray
    r_set: np.ndarray
    r_tag: np.ndarray
    r_first_read: np.ndarray
    r_last_pos: np.ndarray
    r_w_pre: np.ndarray
    r_has_read: np.ndarray


def _build_set_view(view: ColumnarTrace, lines_per_way: int) -> _SetView:
    n = view.accesses
    indices = view.event_line % lines_per_way
    order = np.argsort(indices, kind="stable")
    idx_s = indices[order]
    line_s = view.event_line[order]
    first_read_s = view.event_first_read[order]
    last_pos_s = view.event_last_pos[order]
    w_pre_s = view.event_writes_before_read[order]
    events = len(idx_s)

    # chains: consecutive events on the same line within the same set
    chain_start = np.empty(events, dtype=bool)
    chain_start[0] = True
    chain_start[1:] = (idx_s[1:] != idx_s[:-1]) | (line_s[1:] != line_s[:-1])
    starts = np.flatnonzero(chain_start)
    ends = np.append(starts[1:], events) - 1
    chain_id = np.cumsum(chain_start) - 1

    # a chain member's leading writes can only miss while no earlier chain
    # member carried a read; compute "read seen before me, within my chain"
    # with a per-chain running minimum (the id*big offset confines the
    # accumulate to one chain: earlier chains' values are strictly larger)
    big = n + 1
    running_min = np.minimum.accumulate(first_read_s - chain_id * big)
    prior = np.empty(events, dtype=np.int64)
    prior[0] = big
    prior[1:] = running_min[:-1] + chain_id[1:] * big
    no_read_before = prior >= n
    w_pre_chain = np.add.reduceat(np.where(no_read_before, w_pre_s, 0), starts)

    cset = idx_s[starts]
    ctag = line_s[starts] // lines_per_way
    cfirst = np.minimum.reduceat(first_read_s, starts)
    clast = last_pos_s[ends]
    chas_read = cfirst < n
    chains = len(starts)

    group_boundary = np.empty(chains, dtype=bool)
    group_boundary[0] = True
    group_boundary[1:] = cset[1:] != cset[:-1]
    group_starts = np.flatnonzero(group_boundary)
    group_lengths = np.diff(np.append(group_starts, chains))
    start_per_event = np.repeat(group_starts, group_lengths)
    rank = np.arange(chains, dtype=np.int64) - start_per_event
    by_rank = np.argsort(rank, kind="stable")
    max_rank = int(rank.max())
    rank_bounds = np.searchsorted(rank[by_rank], np.arange(max_rank + 2))

    return _SetView(
        set_index=cset, tag=ctag, first_read=cfirst, last_pos=clast,
        w_pre=w_pre_chain, has_read=chas_read,
        group_starts=group_starts, group_start_per_event=start_per_event,
        rank_bounds=rank_bounds,
        r_set=cset[by_rank], r_tag=ctag[by_rank], r_first_read=cfirst[by_rank],
        r_last_pos=clast[by_rank], r_w_pre=w_pre_chain[by_rank],
        r_has_read=chas_read[by_rank],
    )


# -- direct-mapped replay ----------------------------------------------------------------


def _replay_direct_mapped(
    view: ColumnarTrace, config: CacheConfig, state: KernelState
) -> Tuple[int, int]:
    """Event replay of a 1-way cache as pure NumPy reductions.

    With a single way the stored tag of a set only changes at *reads*
    (write-through, no write-allocate), so an event starts present
    exactly when its tag matches the most recent earlier read-carrying
    event of the same set -- or the pre-existing tag store content when
    there is none.  On the set-grouped event stream that "previous
    read-carrying event in my set" relation is a running maximum.
    """
    lru = config.replacement == Replacement.LRU
    sv = view.set_view(config.lines_per_way)
    events = len(sv.set_index)

    positions = np.arange(events, dtype=np.int64)
    last_read = np.maximum.accumulate(np.where(sv.has_read, positions, -1))
    prev_read = np.empty(events, dtype=np.int64)
    prev_read[0] = -1
    prev_read[1:] = last_read[:-1]
    # a "previous read" carried over from a different set is invalid; the
    # event then sees the tag store's current content (-1 never matches)
    has_prev = prev_read >= sv.group_start_per_event
    initial_tags = state.tags[sv.set_index, 0]
    effective_tag = np.where(
        has_prev, sv.tag[np.maximum(prev_read, 0)], initial_tags)
    present = effective_tag == sv.tag

    absent = ~present
    read_misses = int(np.count_nonzero(absent & sv.has_read))
    write_misses = int(sv.w_pre[absent].sum())

    # final tag store: the last read-carrying event of each set wins
    group_ends = np.append(sv.group_starts[1:], events) - 1
    final_read = last_read[group_ends]
    touched = final_read >= sv.group_starts
    state.tags[sv.set_index[sv.group_starts[touched]], 0] = sv.tag[final_read[touched]]

    # replacement age, matching the scalar loop tick for tick: LRU updates
    # on every hit and fill (so the chain's last non-write-miss access
    # wins), other policies only at fills (the chain's first read)
    tick0 = state.tick + 1
    if lru:
        qualifies = present | sv.has_read
        age_tick = tick0 + sv.last_pos
    else:
        qualifies = absent & sv.has_read
        age_tick = tick0 + sv.first_read
    last_qualifying = np.maximum.accumulate(
        np.where(qualifies, positions, -1))[group_ends]
    aged = last_qualifying >= sv.group_starts
    state.age[sv.set_index[sv.group_starts[aged]], 0] = age_tick[last_qualifying[aged]]
    return read_misses, write_misses


# -- set-associative replay --------------------------------------------------------------


def _replay_set_associative(
    view: ColumnarTrace,
    config: CacheConfig,
    state: KernelState,
    random_victims: np.ndarray,
) -> Tuple[int, int]:
    """Rank-synchronous replay: all sets advance one event per iteration.

    Iteration ``k`` applies every set's ``k``-th potential-miss event
    simultaneously with vectorised presence tests and victim selection.
    Per-set event order is preserved and sets never interact, so the
    replay is exact; the Python-level loop runs max-events-per-set
    times, never once per access.
    """
    ways = config.ways
    lru = config.replacement == Replacement.LRU
    lrr = config.replacement == Replacement.LRR
    sv = view.set_view(config.lines_per_way)
    bounds = sv.rank_bounds

    tags, age, fifo = state.tags, state.age, state.fifo
    tick0 = state.tick + 1  # the k-th access of this replay runs at tick0 + k
    read_misses = 0
    write_misses = 0

    for k in range(len(bounds) - 1):
        sl = slice(bounds[k], bounds[k + 1])
        sets = sv.r_set[sl]       # distinct within a rank slice by construction
        tag = sv.r_tag[sl]
        rows = tags[sets]
        match = rows == tag[:, None]
        present = match.any(axis=1)
        absent = ~present
        write_misses += int(sv.r_w_pre[sl][absent].sum())

        if lru and present.any():
            hit_sets = sets[present]
            hit_way = np.argmax(match[present], axis=1)
            age[hit_sets, hit_way] = tick0 + sv.r_last_pos[sl][present]

        fill = absent & sv.r_has_read[sl]
        filled = int(np.count_nonzero(fill))
        read_misses += filled
        if not filled:
            continue
        fill_sets = sets[fill]
        fill_rows = rows[fill]
        invalid = fill_rows == -1
        has_invalid = invalid.any(axis=1)
        if lru:
            policy_victim = np.argmin(age[fill_sets], axis=1)
        elif lrr:
            policy_victim = fifo[fill_sets]
        else:
            policy_victim = random_victims[sv.r_first_read[sl][fill]]
        victim = np.where(has_invalid, np.argmax(invalid, axis=1), policy_victim)
        if lrr:
            evicting = ~has_invalid
            fifo[fill_sets[evicting]] = (victim[evicting] + 1) % ways
        tags[fill_sets, victim] = tag[fill]
        # LRU: in-chain hits after the fill promote the line to the chain's last tick
        fill_tick = sv.r_last_pos[sl] if lru else sv.r_first_read[sl]
        age[fill_sets, victim] = tick0 + fill_tick[fill]

    return read_misses, write_misses


# -- cross-config replay sharing ---------------------------------------------------------

_POLICY_CODES = {Replacement.LRU: 0, Replacement.LRR: 1, Replacement.RANDOM: 2}
_POLICY_LRU, _POLICY_LRR, _POLICY_RANDOM = 0, 1, 2
#: Tag value of padded ways in the stacked state: never matches a real tag
#: (tags are non-negative) and is never mistaken for an invalid way (-1).
_PAD_TAG = -2
#: Age of padded ways: never wins the LRU argmin against real ages (>= 0).
_PAD_AGE = np.iinfo(np.int64).max
#: Rank width below which the merged replay leaves the vectorized rank
#: loop for the event-serial tail.  Past the hottest few hundred ranks a
#: handful of sets carry all remaining events, so an iteration's dozen
#: numpy calls dwarf its per-event work; serialized Python-scalar replay
#: of the (already rank-ordered) remainder is cheaper.  The crossover
#: sits near fixed-iteration-cost / per-event-scalar-cost.  Tests pin
#: this to force either phase; 0 disables the tail entirely.
_TAIL_SWITCH = 32


def _policy_code(replacement: str) -> int:
    return _POLICY_CODES[replacement]


def _replay_tail_serial(rest, m_row, m_tag, m_read, m_code, m_rv, m_last1,
                        m_fill_tick1, m_ways, tags2d, age2d, fifo1d,
                        fills_so_far, absent_all):
    """Event-serial replay of the merged stream's narrow tail.

    The merged stream is rank-ordered and a row's events sit in distinct
    ranks, so walking the remaining events one by one in stream order
    executes exactly the schedule the vectorized loop would have run --
    without paying a dozen numpy dispatches per near-empty rank.  State
    for the few rows still active is lifted into plain Python lists and
    written back at the end.
    """
    e_row = m_row[rest].tolist()
    e_tag = m_tag[rest].tolist()
    e_read = m_read[rest].tolist()
    e_code = m_code[rest].tolist()
    e_rv = m_rv[rest].tolist()
    e_last1 = m_last1[rest].tolist()
    e_tick1 = m_fill_tick1[rest].tolist()
    e_ways = m_ways[rest].tolist()

    tags_l: Dict[int, list] = {}
    age_l: Dict[int, list] = {}
    fifo_l: Dict[int, int] = {}
    fills_l: Dict[int, int] = {}
    for r in set(e_row):
        tags_l[r] = tags2d[r].tolist()
        age_l[r] = age2d[r].tolist()
        fifo_l[r] = int(fifo1d[r])
        fills_l[r] = int(fills_so_far[r])

    absent_local = []
    for i in range(len(e_row)):
        r = e_row[i]
        t = e_tag[i]
        tl = tags_l[r]
        if t in tl:
            if e_code[i] == _POLICY_LRU:
                age_l[r][tl.index(t)] = e_last1[i]
            continue
        absent_local.append(i)
        if not e_read[i]:
            continue
        w = e_ways[i]
        f = fills_l[r]
        if f < w:
            victim = f   # cold start: first invalid way == fills so far
        else:
            code = e_code[i]
            if code == _POLICY_LRU:
                al = age_l[r]
                victim = al.index(min(al[:w]))
            elif code == _POLICY_LRR:
                victim = fifo_l[r]
                fifo_l[r] = (victim + 1) % w
            else:
                victim = e_rv[i]
        fills_l[r] = f + 1
        tl[victim] = t
        age_l[r][victim] = e_tick1[i]

    if absent_local:
        absent_all[np.asarray(absent_local, dtype=np.int64) + rest.start] = True
    for r, tl in tags_l.items():
        tags2d[r] = tl
        age2d[r] = age_l[r]
        fifo1d[r] = fifo_l[r]


def replay_many_associative(
    view: ColumnarTrace, configs: Sequence[CacheConfig]
) -> Tuple[List[CacheStatistics], List[KernelState]]:
    """Replay one decoded trace against many cold associative geometries at once.

    The whole batch advances through a single rank-synchronous loop:
    tag/age/FIFO state is stacked into one ``(configs, sets, ways)``
    array padded to the batch maxima, and the rank-``k`` event slices of
    every configuration's :class:`_SetView` are concatenated (with a
    per-event configuration index) so one iteration applies rank ``k``
    of *every* configuration.  The Python-level loop therefore runs
    ``max_c ranks(c)`` times for the group instead of
    ``sum_c ranks(c)`` -- the win grows with geometry density, which is
    exactly the shape of the paper's Figure-2 sweep.

    Mixed ``lines_per_way``, mixed ways and mixed replacement policies
    are all fine; only the line size must match the view's.  Results are
    bit-identical to per-config :func:`replay` from cold state: the same
    statistics, the same final (unpadded) :class:`KernelState`, and the
    same per-config seeded RANDOM victim stream (each configuration
    draws its full positional victim array exactly like :func:`replay`).
    Returns ``(statistics, states)`` in input order.
    """
    configs = list(configs)
    if not configs:
        return [], []
    for config in configs:
        if config.linesize_bytes != view.linesize_bytes:
            raise ConfigurationError(
                f"decoded view has linesize {view.linesize_bytes}, "
                f"configuration expects {config.linesize_bytes}")
        if config.ways < 2:
            raise ConfigurationError(
                "replay_many_associative requires ways >= 2; replay "
                "direct-mapped configurations individually")
    n = view.accesses
    if n == 0 or len(view) == 0:
        states = [fresh_state(config) for config in configs]
        stats = [replay(view, config, state=state)
                 for config, state in zip(configs, states)]
        return stats, states

    count = len(configs)
    ways_arr = np.asarray([c.ways for c in configs], dtype=np.int64)
    lpw_arr = np.asarray([c.lines_per_way for c in configs], dtype=np.int64)
    codes = np.asarray([_policy_code(c.replacement) for c in configs],
                       dtype=np.int64)
    max_ways = int(ways_arr.max())
    max_sets = int(lpw_arr.max())
    rngs = [np.random.default_rng(c.seed) for c in configs]

    # merged rank-ordered event stream: concatenate every config's
    # rank-ordered arrays, then stable-sort by rank so slice k holds the
    # rank-k events of all configs (config order preserved within a rank)
    rank_id_cache: Dict[int, np.ndarray] = {}
    rank_parts, cidx_parts, rv_parts = [], [], []
    set_parts, tag_parts, first_parts, last_parts = [], [], [], []
    wpre_parts, read_parts = [], []
    for c, config in enumerate(configs):
        lpw = int(lpw_arr[c])
        sv = view.set_view(lpw)
        rank_ids = rank_id_cache.get(lpw)
        if rank_ids is None:
            rank_ids = np.repeat(
                np.arange(len(sv.rank_bounds) - 1, dtype=np.int64),
                np.diff(sv.rank_bounds))
            rank_id_cache[lpw] = rank_ids
        # full positional draw, exactly like replay(), so the per-config
        # generator ends at the identical stream position
        draws = rngs[c].integers(0, int(ways_arr[c]), size=n)
        rank_parts.append(rank_ids)
        cidx_parts.append(np.full(len(rank_ids), c, dtype=np.int64))
        set_parts.append(sv.r_set)
        tag_parts.append(sv.r_tag)
        first_parts.append(sv.r_first_read)
        last_parts.append(sv.r_last_pos)
        wpre_parts.append(sv.r_w_pre)
        read_parts.append(sv.r_has_read)
        if codes[c] == _POLICY_RANDOM:
            # the clip only touches read-less events, which never fill
            rv_parts.append(draws[np.minimum(sv.r_first_read, n - 1)])
        else:
            rv_parts.append(np.zeros(len(rank_ids), dtype=np.int64))

    m_rank = np.concatenate(rank_parts)
    order = np.argsort(m_rank, kind="stable")
    m_rank = m_rank[order]
    m_cidx = np.concatenate(cidx_parts)[order]
    m_set = np.concatenate(set_parts)[order]
    m_tag = np.concatenate(tag_parts)[order]
    m_read = np.concatenate(read_parts)[order]
    m_rv = np.concatenate(rv_parts)[order]
    m_code = codes[m_cidx]
    m_is_lru = m_code == _POLICY_LRU
    # precompute everything the rank loop would otherwise recompute per
    # iteration: ages are always "tick0 + position" with tick0 == 1 (the
    # whole batch is cold), and the fill tick is policy-determined per
    # event (LRU promotes to the chain's last access, others stamp the
    # fill itself)
    m_first = np.concatenate(first_parts)[order]
    m_last1 = np.concatenate(last_parts)[order] + 1
    m_fill_tick1 = np.where(m_is_lru, m_last1, m_first + 1)
    # flattened (config, set) row index: every gather/scatter in the rank
    # loop then uses ONE integer index array instead of a (cidx, sets)
    # pair, which roughly halves the fancy-indexing cost per iteration
    m_row = m_cidx * max_sets + m_set
    m_ways = ways_arr[m_cidx]
    # fused per-event fill operands -- victim draw, tag, fill tick, ways,
    # policy code -- so handling a rank's fills costs ONE row gather
    # instead of five scattered ones (the loop is fixed-overhead bound:
    # its cost is numpy calls per iteration, not bytes moved)
    total_events = len(m_rank)
    m_fill_ops = np.empty((total_events, 5), dtype=np.int64)
    m_fill_ops[:, 0] = m_rv
    m_fill_ops[:, 1] = m_tag
    m_fill_ops[:, 2] = m_fill_tick1
    m_fill_ops[:, 3] = m_ways
    m_fill_ops[:, 4] = m_code
    bounds = np.searchsorted(m_rank, np.arange(int(m_rank[-1]) + 2)).tolist()

    tags = np.full((count, max_sets, max_ways), _PAD_TAG, dtype=np.int64)
    age = np.full((count, max_sets, max_ways), _PAD_AGE, dtype=np.int64)
    fifo = np.zeros((count, max_sets), dtype=np.int64)
    for c in range(count):
        tags[c, :lpw_arr[c], :ways_arr[c]] = -1
        age[c, :lpw_arr[c], :ways_arr[c]] = 0
    # 2-D views over the same storage, addressed by the flattened row ids
    tags2d = tags.reshape(count * max_sets, max_ways)
    age2d = age.reshape(count * max_sets, max_ways)
    fifo1d = fifo.reshape(count * max_sets)

    has_lru = bool(np.any(codes == _POLICY_LRU))
    has_lrr = bool(np.any(codes == _POLICY_LRR))
    # homogeneous-LRU groups (the Figure-2 geometry grid) take a leaner
    # path: invalid ways keep age 0 while every valid age is >= tick0, so
    # argmin(age) alone lands on the first invalid way of a cold set --
    # the oracle's invalid-first rule -- and the fill counter, policy
    # dispatch and per-event victim draws all drop out of the loop
    all_lru = has_lru and not bool(np.any(codes != _POLICY_LRU))
    # miss *accounting* is independent across ranks; record the per-event
    # outcomes and fold them into per-config counts with one bincount
    # after the loop instead of two per rank
    absent_all = np.zeros(total_events, dtype=bool)
    # the kernel starts cold and ways never re-invalidate, so the first
    # invalid way of a row is simply the number of fills it has absorbed;
    # a per-row counter replaces the per-fill invalid-way scan
    fills_so_far = np.zeros(count * max_sets, dtype=np.int64)

    # vectorize while ranks are wide; once they narrow to a handful of
    # hot sets, serialize the remainder (rank order is a valid schedule,
    # so replaying the leftover events one by one is the same machine)
    switch = len(bounds) - 1
    for k in range(len(bounds) - 1):
        if bounds[k + 1] - bounds[k] < _TAIL_SWITCH:
            switch = k
            break

    for k in range(switch):
        sl = slice(bounds[k], bounds[k + 1])
        rowsl = m_row[sl]
        rows = tags2d[rowsl]   # (events, max_ways); (config, set) pairs distinct
        match = rows == m_tag[sl][:, None]
        present = match.any(axis=1)
        absent = ~present
        absent_all[sl] = absent

        if has_lru:
            hits = (present if all_lru
                    else (present & m_is_lru[sl])).nonzero()[0]
            if len(hits):
                hit_way = np.argmax(match[hits], axis=1)
                age2d[rowsl[hits], hit_way] = m_last1[sl][hits]

        fill = (absent & m_read[sl]).nonzero()[0]
        if not len(fill):
            continue
        frow = rowsl[fill]
        ops = m_fill_ops[sl][fill]   # victim draw, tag, fill tick, ways, code
        if all_lru:
            victim = np.argmin(age2d[frow], axis=1)
        else:
            fills = fills_so_far[frow]
            full = fills >= ops[:, 3]
            policy_victim = ops[:, 0]
            if has_lru:
                code = ops[:, 4]
                policy_victim = np.where(
                    code == _POLICY_LRU,
                    np.argmin(age2d[frow], axis=1), policy_victim)
            if has_lrr:
                code = ops[:, 4]
                policy_victim = np.where(
                    code == _POLICY_LRR, fifo1d[frow], policy_victim)
            victim = np.where(full, policy_victim, fills)
            if has_lrr:
                evicting = ((code == _POLICY_LRR) & full).nonzero()[0]
                if len(evicting):
                    fifo1d[frow[evicting]] = (
                        victim[evicting] + 1) % ops[evicting, 3]
            fills_so_far[frow] = fills + 1
        tags2d[frow, victim] = ops[:, 1]
        age2d[frow, victim] = ops[:, 2]

    if switch < len(bounds) - 1:
        _replay_tail_serial(
            slice(bounds[switch], total_events),
            m_row, m_tag, m_read, m_code, m_rv, m_last1, m_fill_tick1,
            m_ways, tags2d, age2d, fifo1d, fills_so_far, absent_all)

    fill_all = absent_all & m_read
    read_misses = np.bincount(m_cidx[fill_all], minlength=count)
    write_misses = np.bincount(
        m_cidx[absent_all],
        weights=np.concatenate(wpre_parts)[order][absent_all], minlength=count)

    statistics: List[CacheStatistics] = []
    states: List[KernelState] = []
    write_counts = write_misses.astype(np.int64)
    for c, config in enumerate(configs):
        lpw, ways = int(lpw_arr[c]), int(ways_arr[c])
        states.append(KernelState(
            tags=tags[c, :lpw, :ways].copy(),
            age=age[c, :lpw, :ways].copy(),
            fifo=fifo[c, :lpw].copy(),
            tick=n,
            rng=rngs[c],
        ))
        statistics.append(CacheStatistics(
            accesses=n,
            read_accesses=n - view.write_accesses,
            write_accesses=view.write_accesses,
            read_misses=int(read_misses[c]),
            write_misses=int(write_counts[c]),
        ))
    return statistics, states


# -- per-event reference loop ------------------------------------------------------------


def _replay_events_loop(set_index, tag, first_read, last_pos, w_pre, has_read,
                        tags, age, fifo, random_victims, tick0, ways, policy):
    """Scalar per-event replay over a set-grouped :class:`_SetView`.

    One plain loop step per run-compressed event, mutating the state
    arrays in place: the event-level counterpart of the per-access
    scalar reference, to which the property tests hold it.
    """
    read_misses = 0
    write_misses = 0
    for e in range(set_index.shape[0]):
        s = set_index[e]
        t = tag[e]
        hit = False
        for w in range(ways):
            if tags[s, w] == t:
                if policy == 0:  # LRU promotes on hit
                    age[s, w] = tick0 + last_pos[e]
                hit = True
                break
        if hit:
            continue
        write_misses += w_pre[e]
        if not has_read[e]:
            continue
        read_misses += 1
        victim = -1
        for w in range(ways):
            if tags[s, w] == -1:
                victim = w
                break
        if victim < 0:
            if policy == 0:  # LRU
                victim = 0
                best = age[s, 0]
                for w in range(1, ways):
                    if age[s, w] < best:
                        best = age[s, w]
                        victim = w
            elif policy == 1:  # LRR: FIFO pointer advances only on eviction
                victim = fifo[s]
                fifo[s] = (victim + 1) % ways
            else:  # RANDOM: positional pre-drawn victim of the fill access
                victim = random_victims[first_read[e]]
        tags[s, victim] = t
        if policy == 0:
            age[s, victim] = tick0 + last_pos[e]
        else:
            age[s, victim] = tick0 + first_read[e]
    return read_misses, write_misses


def _replay_set_associative_events(
    view: ColumnarTrace,
    config: CacheConfig,
    state: KernelState,
    random_victims: np.ndarray,
) -> Tuple[int, int]:
    """Replay one geometry through :func:`_replay_events_loop`."""
    sv = view.set_view(config.lines_per_way)
    read_misses, write_misses = _replay_events_loop(
        sv.set_index, sv.tag, sv.first_read, sv.last_pos, sv.w_pre, sv.has_read,
        state.tags, state.age, state.fifo, random_victims,
        state.tick + 1, config.ways, _policy_code(config.replacement))
    return int(read_misses), int(write_misses)
