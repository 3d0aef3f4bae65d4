"""Bit-identity of the cross-config replay lane and the per-event loop.

The kernel lanes must be indistinguishable from the scalar reference
loop (``Cache.simulate(vectorized=False)``) in every observable:
hit/miss statistics field for field, the final tag/age/FIFO state of
every configuration in a merged batch, the replay tick, and the position
of each configuration's seeded RANDOM victim stream.  The hypothesis
suites below drive the shared randomized geometries/traces from
``conftest`` through:

* :func:`~repro.microarch.cachekernel.replay_many_associative` -- the
  rank-synchronous cross-config lane, on mixed-geometry batches;
* the plain-Python per-event loop
  (:func:`~repro.microarch.cachekernel._replay_events_loop`);
* :func:`~repro.microarch.cachekernel.simulate_many` under every lane
  selection, including the ``REPRO_KERNEL_LANE`` environment knob.

The known cross-config LRU batching defect is pinned by strict
``xfail`` tests below until it is fixed: its effect on the statistics of
a long trace, and its minimal form (a wrong final state).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import SET_ASSOCIATIVE_WAYS, to_arrays, trace_strategy

from repro.config import Replacement
from repro.engine import ParallelEvaluator
from repro.errors import ConfigurationError
from repro.microarch import cachekernel
from repro.microarch.cache import Cache, CacheConfig
from repro.microarch.cachekernel import (
    DEFAULT_LANE,
    KERNEL_LANE_ENV,
    LANE_CROSSCONFIG,
    LANE_NUMPY,
    decode_trace,
    kernel_lane,
    replay,
    replay_many_associative,
    simulate_many,
)
from repro.platform import LiquidPlatform
from repro.workloads import ArithWorkload, DrrWorkload


def config_batch_strategy(min_size=2, max_size=5, ways=SET_ASSOCIATIVE_WAYS):
    """Mixed-geometry batches sharing one line size (the grouping invariant).

    Way counts, way sizes and replacement policies vary freely within a
    batch -- exactly the shape :func:`replay_many_associative` merges --
    while the line size is drawn once because a decoded view is a
    property of the line size.
    """
    geometry = st.fixed_dictionaries({
        "ways": st.sampled_from(list(ways)),
        "setsize_kb": st.sampled_from([1, 2, 4]),
        "replacement": st.sampled_from(sorted(Replacement.ALL)),
    })
    return st.tuples(
        st.sampled_from([4, 8]),
        st.lists(geometry, min_size=min_size, max_size=max_size),
    ).map(lambda drawn: [
        CacheConfig(linesize_words=drawn[0], **g) for g in drawn[1]])


def scalar_oracle(config, addresses, writes):
    """The forced scalar loop: statistics plus the full final cache."""
    cache = Cache(config)
    stats = cache.simulate(addresses, writes, vectorized=False)
    return stats, cache


def assert_state_matches_oracle(state, cache):
    """A merged-replay ``KernelState`` must equal the oracle cache bit for bit."""
    np.testing.assert_array_equal(state.tags, cache._tags)
    np.testing.assert_array_equal(state.age, cache._age)
    np.testing.assert_array_equal(state.fifo, cache._fifo)
    assert state.tick == cache._tick
    assert state.rng.bit_generator.state == cache._rng.bit_generator.state


# -- cross-config merged replay ----------------------------------------------------------

@given(configs=config_batch_strategy(), trace=trace_strategy())
@settings(max_examples=40, deadline=None)
def test_crossconfig_batch_matches_scalar_oracle(configs, trace):
    """Merged stats AND every unpadded final state equal the scalar loop's."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)

    stats, states = replay_many_associative(view, configs)

    assert len(stats) == len(states) == len(configs)
    for config, stat, state in zip(configs, stats, states):
        ref_stats, ref_cache = scalar_oracle(config, addresses, writes)
        assert stat == ref_stats
        assert_state_matches_oracle(state, ref_cache)


@given(configs=config_batch_strategy(min_size=2, max_size=4),
       trace=trace_strategy(max_size=200))
@settings(max_examples=25, deadline=None)
def test_crossconfig_hybrid_phases_each_match_oracle(configs, trace):
    """Both halves of the hybrid loop are the same machine.

    The merged replay runs a vectorized rank loop while ranks are wide
    and serializes the narrow tail.  Pinning the switch point to its
    extremes forces each phase to replay the *whole* stream -- tiny
    hypothesis traces would otherwise mostly exercise the tail -- and
    both must agree with the scalar oracle bit for bit.
    """
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    saved = cachekernel._TAIL_SWITCH
    results = []
    try:
        for switch in (0, 1 << 30):
            cachekernel._TAIL_SWITCH = switch
            results.append(replay_many_associative(view, configs))
    finally:
        cachekernel._TAIL_SWITCH = saved
    for stats, states in results:
        for config, stat, state in zip(configs, stats, states):
            ref_stats, ref_cache = scalar_oracle(config, addresses, writes)
            assert stat == ref_stats
            assert_state_matches_oracle(state, ref_cache)


@given(configs=config_batch_strategy(min_size=2, max_size=4),
       trace=trace_strategy(max_size=200))
@settings(max_examples=25, deadline=None)
def test_crossconfig_batch_matches_per_config_replay(configs, trace):
    """The merged loop and N independent replay() calls are interchangeable."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)

    merged_stats, merged_states = replay_many_associative(view, configs)
    for config, stat, state in zip(configs, merged_stats, merged_states):
        solo_state = cachekernel.fresh_state(config)
        solo_stat = replay(view, config, state=solo_state)
        assert stat == solo_stat
        np.testing.assert_array_equal(state.tags, solo_state.tags)
        np.testing.assert_array_equal(state.age, solo_state.age)
        np.testing.assert_array_equal(state.fifo, solo_state.fifo)
        assert state.tick == solo_state.tick
        assert (state.rng.bit_generator.state
                == solo_state.rng.bit_generator.state)


def test_crossconfig_rejects_direct_mapped_and_mismatched_linesize():
    view = decode_trace(np.asarray([0, 4, 8], dtype=np.int64), linesize_bytes=16)
    with pytest.raises(ConfigurationError):
        replay_many_associative(view, [CacheConfig(ways=1, setsize_kb=1,
                                                   linesize_words=4)])
    with pytest.raises(ConfigurationError):
        replay_many_associative(view, [CacheConfig(ways=2, setsize_kb=1,
                                                   linesize_words=8)])


def test_crossconfig_empty_trace_yields_cold_states():
    view = decode_trace(np.asarray([], dtype=np.int64), linesize_bytes=16)
    configs = [CacheConfig(ways=2, setsize_kb=1, linesize_words=4),
               CacheConfig(ways=4, setsize_kb=2, linesize_words=4,
                           replacement=Replacement.LRU)]
    stats, states = replay_many_associative(view, configs)
    for config, stat, state in zip(configs, stats, states):
        assert stat.accesses == 0 and stat.misses == 0
        assert (state.tags == -1).all()
        assert state.tick == 0


# -- lane selection and equivalence ------------------------------------------------------

@given(configs=config_batch_strategy(min_size=2, max_size=4,
                                     ways=(1,) + SET_ASSOCIATIVE_WAYS),
       trace=trace_strategy(max_size=250))
@settings(max_examples=25, deadline=None)
def test_simulate_many_identical_across_all_lanes(configs, trace):
    """numpy and crossconfig lanes agree on mixed direct/associative batches."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)

    reference = simulate_many(view, configs, lane=LANE_NUMPY)
    assert simulate_many(view, configs, lane=LANE_CROSSCONFIG) == reference


@given(configs=config_batch_strategy(min_size=2, max_size=3),
       trace=trace_strategy(max_size=200))
@settings(max_examples=20, deadline=None)
def test_event_loop_matches_scalar_oracle(configs, trace):
    """The per-event loop is bit-identical, state included."""
    addresses, writes = to_arrays(trace)
    view = decode_trace(addresses, writes,
                        linesize_bytes=configs[0].linesize_bytes)
    with mock.patch.object(cachekernel, "_replay_set_associative",
                           cachekernel._replay_set_associative_events):
        for config in configs:
            state = cachekernel.fresh_state(config)
            stats = replay(view, config, state=state)
            ref_stats, ref_cache = scalar_oracle(config, addresses, writes)
            assert stats == ref_stats
            assert_state_matches_oracle(state, ref_cache)


class TestKernelLaneResolution:
    def test_default_lane_is_crossconfig(self, monkeypatch):
        monkeypatch.delenv(KERNEL_LANE_ENV, raising=False)
        assert kernel_lane() == LANE_CROSSCONFIG == DEFAULT_LANE

    def test_environment_selects_lane(self, monkeypatch):
        monkeypatch.setenv(KERNEL_LANE_ENV, "numpy")
        assert kernel_lane() == LANE_NUMPY

    def test_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_LANE_ENV, "numpy")
        assert kernel_lane(LANE_CROSSCONFIG) == LANE_CROSSCONFIG

    def test_case_and_whitespace_insensitive(self, monkeypatch):
        monkeypatch.delenv(KERNEL_LANE_ENV, raising=False)
        assert kernel_lane(" NumPy ") == LANE_NUMPY

    def test_unknown_lane_raises(self):
        for lane in ("vulkan", "jit", "numba"):
            with pytest.raises(ConfigurationError):
                kernel_lane(lane)

    def test_environment_drives_simulate_many(self, monkeypatch):
        """The env knob reaches the dispatch itself, not just the resolver."""
        addresses = np.arange(0, 4096, 16, dtype=np.int64)
        view = decode_trace(addresses, linesize_bytes=16)
        configs = [CacheConfig(ways=2, setsize_kb=1, linesize_words=4),
                   CacheConfig(ways=4, setsize_kb=1, linesize_words=4,
                               replacement=Replacement.LRU)]
        monkeypatch.setenv(KERNEL_LANE_ENV, LANE_NUMPY)
        reference = simulate_many(view, configs)
        monkeypatch.setenv(KERNEL_LANE_ENV, LANE_CROSSCONFIG)
        assert simulate_many(view, configs) == reference


    def test_kernel_lane_recorded_in_stats(self):
        from repro.config import base_configuration

        base = base_configuration()
        configs = [
            base.replace(dcache_sets=2, dcache_replacement=Replacement.RANDOM),
            base.replace(dcache_sets=2, dcache_replacement=Replacement.LRR),
            base.replace(dcache_sets=4, dcache_replacement=Replacement.LRU),
            base.replace(dcache_sets=3, dcache_setsize_kb=2),
        ]
        workload = ArithWorkload(iterations=120)
        with ParallelEvaluator(LiquidPlatform(), workers=1) as engine:
            engine.measure_many(workload, configs)
            assert engine.stats.kernel_lane == kernel_lane()
            assert engine.stats.as_dict()["kernel_lane"] == kernel_lane()


# -- known defect ------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=(
    "known defect: the cross-config lane miscounts LRU misses when two "
    "LRU geometries share one merged batch"))
def test_crossconfig_lru_pair_matches_per_config_replay():
    """Two LRU geometries batched together must replay as they do alone.

    On the DRR dcache view at 16-byte lines the merged cross-config
    replay of ``[4-way x 2 KB LRU, 2-way x 1 KB LRU]`` reports more
    read misses than the numpy lane and than each configuration alone:
    696/728 against 695/726 at the small scale used here, and
    9212/10479 against 9208/10473 at the standard scale.
    """
    view = DrrWorkload(packet_count=200).columnar_view("dcache", 16)
    configs = [
        CacheConfig(ways=4, setsize_kb=2, linesize_words=4,
                    replacement=Replacement.LRU),
        CacheConfig(ways=2, setsize_kb=1, linesize_words=4,
                    replacement=Replacement.LRU),
    ]
    alone = [simulate_many(view, [config], lane=LANE_CROSSCONFIG)[0]
             for config in configs]
    assert simulate_many(view, configs, lane=LANE_NUMPY) == alone
    assert simulate_many(view, configs, lane=LANE_CROSSCONFIG) == alone


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the cross-config lane leaves a wrong final LRU state "
    "when two identical LRU geometries share one merged batch"))
def test_crossconfig_identical_lru_pair_final_state_matches_oracle():
    """The minimal form of the LRU batching defect.

    Two identical 2-way x 1 KB LRU caches with 16-byte lines replay the
    reads of word addresses 0, 4, ..., 60, 256.  Their statistics match
    the scalar oracle, but the merged replay leaves set 0 holding tags
    ``[1, -1]`` where the oracle holds ``[0, 1]``; one configuration
    replayed alone matches.  Hypothesis draws this shape from time to
    time in :func:`test_crossconfig_batch_matches_scalar_oracle`.
    """
    config = CacheConfig(ways=2, setsize_kb=1, linesize_words=4,
                         replacement=Replacement.LRU)
    addresses, writes = to_arrays([(word, False) for word in [*range(0, 61, 4), 256]])
    view = decode_trace(addresses, writes, linesize_bytes=config.linesize_bytes)
    ref_stats, ref_cache = scalar_oracle(config, addresses, writes)

    (alone,), (alone_state,) = replay_many_associative(view, [config])
    assert alone == ref_stats
    assert_state_matches_oracle(alone_state, ref_cache)

    stats, states = replay_many_associative(view, [config, config])
    for stat, state in zip(stats, states):
        assert stat == ref_stats
        assert_state_matches_oracle(state, ref_cache)
