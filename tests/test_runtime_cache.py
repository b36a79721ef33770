"""Tests for the runtime profile cache and content fingerprints."""

import contextlib
import dataclasses
import gc
import multiprocessing
import os
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import (
    CrossBinaryConfig,
    run_cross_binary_simpoint,
)
from repro.core.weights import phase_weights
from repro.errors import ReproError
from repro.observability import metrics
from repro.profiling.bbv import collect_fli_bbvs
from repro.profiling.callbranch import collect_call_branch_profile
from repro.programs.inputs import ProgramInput, REF_INPUT, TEST_INPUT
from repro.runtime import (
    CacheStats,
    ProfileCache,
    fingerprint,
    runtime_session,
)
from repro.runtime.config import active_cache, resolve_jobs
from repro.runtime.fingerprint import FingerprintError
from repro.runtime.parallel import _observed_call
from repro.simpoint.simpoint import SimPointConfig

from tests.conftest import MICRO_INTERVAL


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint(REF_INPUT) == fingerprint(REF_INPUT)
        assert fingerprint({"a": 1, "b": 2}) == fingerprint(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert fingerprint(REF_INPUT) != fingerprint(TEST_INPUT)
        assert fingerprint(1) != fingerprint(2)
        assert fingerprint(1.0) != fingerprint(1)
        assert fingerprint((1, 2)) != fingerprint((2, 1))

    def test_distinguishes_float_precision(self):
        assert fingerprint(0.1) != fingerprint(
            0.1 + 1e-17
        ) or 0.1 == 0.1 + 1e-17
        assert fingerprint(0.5) != fingerprint(0.25)

    def test_binary_fingerprint_tracks_content(self, micro_binary_32u,
                                               micro_binary_32o):
        assert fingerprint(micro_binary_32u) == fingerprint(
            micro_binary_32u
        )
        assert fingerprint(micro_binary_32u) != fingerprint(
            micro_binary_32o
        )

    def test_sets_are_order_independent(self):
        assert fingerprint(frozenset({"x", "y"})) == fingerprint(
            frozenset({"y", "x"})
        )

    def test_rejects_unknown_types(self):
        with pytest.raises(FingerprintError):
            fingerprint(object())
        assert isinstance(FingerprintError("x"), ReproError)


class TestProfileCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ProfileCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"value": 42}

        first = cache.get_or_compute("kind", ("key",), compute)
        second = cache.get_or_compute("kind", ("key",), compute)
        assert first == second == {"value": 42}
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_read > 0
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_distinct_keys_distinct_entries(self, tmp_path):
        cache = ProfileCache(tmp_path)
        a = cache.get_or_compute("kind", (1,), lambda: "a")
        b = cache.get_or_compute("kind", (2,), lambda: "b")
        assert (a, b) == ("a", "b")
        assert cache.stats.misses == 2

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entries = list(tmp_path.rglob("*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(b"not a pickle")
        value = cache.get_or_compute("kind", ("key",), lambda: "recomputed")
        assert value == "recomputed"
        # And the rewritten entry is usable again.
        fresh = ProfileCache(tmp_path)
        assert fresh.get_or_compute(
            "kind", ("key",), lambda: "unused"
        ) == "recomputed"

    def test_overflowing_frame_length_is_evicted(self, tmp_path):
        """Regression: a payload whose frame length has its top bit
        flipped makes unpickling raise OverflowError, which used to
        escape get_or_compute instead of counting as a stale entry."""
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: {"value": 1})
        (entry,) = tmp_path.rglob("*.pkl")
        payload = bytearray(entry.read_bytes())
        assert payload[2:3] == pickle.FRAME  # after the protocol header
        payload[10] ^= 0x80  # the 8-byte frame length's top byte
        with pytest.raises(OverflowError):
            pickle.loads(bytes(payload))
        entry.write_bytes(bytes(payload))
        value = cache.get_or_compute("kind", ("key",), lambda: {"value": 2})
        assert value == {"value": 2}
        assert cache.stats.stale_evictions == 1
        assert cache.stats.for_kind("kind").stale_evictions == 1
        assert pickle.loads(entry.read_bytes()) == {"value": 2}

    @pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
    def test_get_or_compute_digests_the_key_once(
        self, tmp_path, monkeypatch, warm
    ):
        cache = ProfileCache(tmp_path)
        if warm:
            cache.get_or_compute("kind", ("key",), lambda: "value")
        digested = []
        original = cache._digest

        def counting(kind, key_material):
            digested.append(kind)
            return original(kind, key_material)

        monkeypatch.setattr(cache, "_digest", counting)
        assert cache.get_or_compute("kind", ("key",), lambda: "value") == (
            "value"
        )
        assert digested == ["kind"]
        assert cache.stats.hits == int(warm)
        assert ProfileCache(tmp_path).lookup("kind", ("key",)) == (
            True, "value"
        )

    def test_stale_entry_naming_missing_module_is_evicted(self, tmp_path):
        """Regression: an entry pickled before a refactor can reference
        a module that no longer exists; loading it raises
        ModuleNotFoundError, not a pickle error, and used to crash
        every future lookup of that key."""
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entry = next(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"cgone_module_xyz\nKlass\n.")
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(entry.read_bytes())  # the crash shape
        with metrics.scoped_registry() as local:
            value = cache.get_or_compute(
                "kind", ("key",), lambda: "recomputed"
            )
        assert value == "recomputed"
        assert local.snapshot()["counters"]["cache.stale_evictions"] == 1
        # The stale bytes are gone; a fresh handle hits the rewrite.
        fresh = ProfileCache(tmp_path)
        assert fresh.get_or_compute(
            "kind", ("key",), lambda: "unused"
        ) == "recomputed"
        assert fresh.stats.hits == 1

    def test_stale_entry_naming_missing_attribute_is_evicted(
        self, tmp_path
    ):
        """Same refactor scenario when the module survives but the
        class moved out of it: unpickling raises AttributeError."""
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entry = next(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"crepro.errors\nNoSuchClass12345\n.")
        with pytest.raises(AttributeError):
            pickle.loads(entry.read_bytes())
        with metrics.scoped_registry() as local:
            value = cache.get_or_compute(
                "kind", ("key",), lambda: "recomputed"
            )
        assert value == "recomputed"
        assert local.snapshot()["counters"]["cache.stale_evictions"] == 1

    def test_eviction_race_with_another_handle_is_benign(self, tmp_path):
        """Two handles can race to evict the same stale entry; the
        loser's unlink hits a missing file and must not raise."""
        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "good")
        entry = next(tmp_path.rglob("*.pkl"))
        entry.unlink()  # the other handle got there first
        cache._evict_stale("kind", entry)  # must not raise

    def test_shared_root_across_handles(self, tmp_path):
        writer = ProfileCache(tmp_path)
        writer.get_or_compute("kind", ("key",), lambda: [1, 2, 3])
        reader = ProfileCache(tmp_path)
        assert reader.get_or_compute(
            "kind", ("key",), lambda: "unused"
        ) == [1, 2, 3]
        assert reader.stats.hits == 1

    def test_merge_stats(self, tmp_path):
        parent = ProfileCache(tmp_path)
        worker = ProfileCache(tmp_path)
        worker.get_or_compute("kind", ("key",), lambda: "x")
        parent.stats.merge(worker.stats)
        parent.stats.merge(CacheStats())  # an idle handle adds nothing
        assert parent.stats.misses == 1
        assert parent.stats.bytes_written == worker.stats.bytes_written

    def test_cache_from_root_none(self, tmp_path, monkeypatch):
        """A pool task given no cache root runs without a cache and
        ships no statistics back, even with ``REPRO_CACHE_DIR`` set;
        given a root, it gets a fresh handle on that directory."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        for root, expected in ((None, None), (tmp_path, str(tmp_path))):
            index, seen, _, stats, _ = _observed_call(
                _active_cache_root, (root, 1.0, frozenset()), (0, "item")
            )
            assert (index, seen) == (0, expected)
            assert (stats is None) == (root is None)
        assert not (tmp_path / "env").exists()

    def test_per_kind_counters(self, tmp_path):
        cache = ProfileCache(tmp_path)
        with metrics.scoped_registry() as local:
            cache.get_or_compute("alpha", ("a",), lambda: "a")
            cache.get_or_compute("alpha", ("a",), lambda: "a")
            cache.get_or_compute("beta", ("b",), lambda: "b")
        alpha = cache.stats.by_kind["alpha"]
        beta = cache.stats.by_kind["beta"]
        assert (alpha.hits, alpha.misses) == (1, 1)
        assert (beta.hits, beta.misses) == (0, 1)
        assert alpha.bytes_written > 0 and alpha.bytes_read > 0
        assert beta.bytes_read == 0
        # Kinds sum to the aggregate.
        assert alpha.hits + beta.hits == cache.stats.hits
        assert alpha.misses + beta.misses == cache.stats.misses
        counters = local.snapshot()["counters"]
        assert counters["cache.alpha.hits"] == 1
        assert counters["cache.alpha.misses"] == 1
        assert counters["cache.beta.misses"] == 1
        assert "cache.beta.hits" not in counters

    def test_merge_folds_per_kind_rows(self, tmp_path):
        parent = ProfileCache(tmp_path)
        parent.get_or_compute("alpha", ("a",), lambda: "a")
        worker = ProfileCache(tmp_path)
        worker.get_or_compute("alpha", ("a",), lambda: "unused")  # hit
        worker.get_or_compute("beta", ("b",), lambda: "b")
        parent.stats.merge(worker.stats)
        alpha = parent.stats.by_kind["alpha"]
        assert (alpha.hits, alpha.misses) == (1, 1)
        assert parent.stats.by_kind["beta"].misses == 1

    def test_format_version_salts_every_key(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_module

        cache = ProfileCache(tmp_path)
        cache.get_or_compute("kind", ("key",), lambda: "v-current")
        monkeypatch.setattr(
            cache_module,
            "CACHE_FORMAT_VERSION",
            cache_module.CACHE_FORMAT_VERSION + 1,
        )
        # Same key under a bumped format version: the old entry is
        # simply never addressed — a clean miss, no eviction.
        value = cache.get_or_compute("kind", ("key",), lambda: "v-next")
        assert value == "v-next"
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert cache.stats.stale_evictions == 0


@contextlib.contextmanager
def _address_space_cap(headroom=512 * 2**20):
    """Cap this process's address space near its current size.

    A damaged pickle can name a memo index in the hundreds of millions,
    and the unpickler then sizes its memo table to match. Under the cap
    that request fails with MemoryError instead of touching gigabytes
    of a shared host's memory.
    """
    try:
        import resource

        with open("/proc/self/status") as status:
            vm_kb = next(
                int(line.split()[1]) for line in status
                if line.startswith("VmSize:")
            )
    except (ImportError, OSError, StopIteration):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = vm_kb * 1024 + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


_ENTRY_VALUE = {
    "binary": "gcc/32u",
    "counts": list(range(40)),
    "ratio": 0.25,
    "nested": (("a", 1), frozenset({2, 3}), None, True),
    "blob": b"\x00\x01" * 8,
}


class TestDamagedEntries:
    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            st.lists(
                st.tuples(st.integers(min_value=0),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=3,
            ),
            st.integers(min_value=0),
        )
    )
    def test_flips_and_truncations_never_raise(self, tmp_path_factory,
                                               damage):
        """Byte flips (lists of (offset, byte)) and truncations (an
        int length) of a stored entry are a hit or a miss, never an
        exception."""
        cache = ProfileCache(tmp_path_factory.mktemp("damaged"))
        cache.store("kind", ("key",), _ENTRY_VALUE)
        (entry,) = cache.root.rglob("*.pkl")
        payload = bytearray(entry.read_bytes())
        if isinstance(damage, int):
            payload = payload[: damage % len(payload)]
        else:
            for offset, byte in damage:
                payload[offset % len(payload)] = byte
        entry.write_bytes(bytes(payload))
        with _address_space_cap():
            found, value = cache.lookup("kind", ("key",))
        assert found or value is None
        assert cache.stats.lookups == 1


class TestRuntimeConfig:
    def test_session_installs_and_restores(self, tmp_path, monkeypatch):
        for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_NO_CACHE"):
            monkeypatch.delenv(var, raising=False)
        assert active_cache() is None
        cache = ProfileCache(tmp_path)
        with runtime_session(jobs=3, cache=cache):
            assert active_cache() is cache
            assert resolve_jobs() == 3
            assert resolve_jobs(1) == 1
        assert active_cache() is None
        assert resolve_jobs() == 1

    def test_env_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs() == 2
        monkeypatch.setenv("REPRO_JOBS", "junk")
        with pytest.raises(ReproError):
            resolve_jobs()


class TestCachedProfiles:
    def test_callbranch_profile_roundtrip(self, micro_binary_32u,
                                          tmp_path):
        cache = ProfileCache(tmp_path)
        direct = collect_call_branch_profile(micro_binary_32u)
        with runtime_session(cache=cache):
            cold = collect_call_branch_profile(micro_binary_32u)
            warm = collect_call_branch_profile(micro_binary_32u)
        assert direct == cold == warm
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_fli_profile_roundtrip(self, micro_binary_32u, tmp_path):
        cache = ProfileCache(tmp_path)
        direct = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        with runtime_session(cache=cache):
            cold = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
            warm = collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        assert direct == cold == warm

    def test_global_cache_used_when_installed(self, micro_binary_32u,
                                              tmp_path):
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_interval_size_changes_key(self, micro_binary_32u, tmp_path):
        cache = ProfileCache(tmp_path)
        with runtime_session(cache=cache):
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL)
            collect_fli_bbvs(micro_binary_32u, MICRO_INTERVAL * 2)
        assert cache.stats.misses == 2 and cache.stats.hits == 0


class TestCrossPipelineCaching:
    def test_cached_run_bit_identical_and_faster(self, micro_binary_list,
                                                 tmp_path):
        # Scale the input (and the interval size with it, so the
        # interval count stays put) until profiling dominates, and
        # shrink the k sweep. Every stage, clustering included, goes
        # through the cache, so a warm run only looks entries up and
        # unpickles them.
        config = CrossBinaryConfig(
            interval_size=MICRO_INTERVAL * 40,
            program_input=ProgramInput(name="speedup", scale=40.0),
            simpoint=SimPointConfig(max_k=3, n_init=2),
        )
        baseline = run_cross_binary_simpoint(micro_binary_list, config)

        cache = ProfileCache(tmp_path)
        # Collect before each timed window so that a pending gen-2
        # collection cannot land inside the few-millisecond warm run.
        gc.collect()
        start = time.perf_counter()
        with runtime_session(cache=cache):
            cold = run_cross_binary_simpoint(micro_binary_list, config)
        cold_elapsed = time.perf_counter() - start
        assert cache.stats.misses > 0 and cache.stats.hits == 0

        gc.collect()
        start = time.perf_counter()
        with runtime_session(cache=cache):
            warm = run_cross_binary_simpoint(micro_binary_list, config)
        warm_elapsed = time.perf_counter() - start
        assert cache.stats.hits == cache.stats.misses

        assert baseline == cold == warm
        # Warm runs skip every profiling pass and every clustering;
        # only lookups and unpickling remain (acceptance: >= 2x).
        assert cold_elapsed > 2 * warm_elapsed, (
            f"warm cache run not faster: cold {cold_elapsed:.3f}s vs "
            f"warm {warm_elapsed:.3f}s"
        )

    def test_phase_weights_roundtrip_through_cache(self, tmp_path):
        cache = ProfileCache(tmp_path)
        counts = [1000, 2500, 1500, 5000]
        labels = [0, 1, 0, 2]
        weights = phase_weights(counts, labels)
        cached = cache.get_or_compute(
            "weights", (counts, labels), lambda: weights
        )
        reloaded = cache.get_or_compute(
            "weights", (counts, labels), lambda: None
        )
        assert cached == weights
        assert reloaded == weights
        # Bit-exact floats, not approximately equal.
        assert pickle.dumps(reloaded) == pickle.dumps(weights)
        assert sum(reloaded.values()) == pytest.approx(1.0)

    def test_input_scale_invalidates(self, micro_binary_list, tmp_path):
        cache = ProfileCache(tmp_path)
        config = CrossBinaryConfig(interval_size=MICRO_INTERVAL)
        scaled = dataclasses.replace(
            config, program_input=ProgramInput(name="half", scale=0.5)
        )
        with runtime_session(cache=cache):
            run_cross_binary_simpoint(micro_binary_list, config)
            before = cache.stats.misses
            run_cross_binary_simpoint(micro_binary_list, scaled)
        assert cache.stats.misses > before


def _active_cache_root(_item):
    """Pool task: the root of the cache the task sees, or ``None``."""
    cache = active_cache()
    return None if cache is None else str(cache.root)


# -- multiprocessing stress: one shared cache key ---------------------

_FORK = multiprocessing.get_context("fork")


def _hammer_cache_key(root, barrier_dir, index):
    """One writer process: everyone races get_or_compute on ONE key."""
    cache = ProfileCache(root)
    value = cache.get_or_compute(
        "stress", ("shared-key",), lambda: {"payload": list(range(200))}
    )
    assert value == {"payload": list(range(200))}
    open(os.path.join(barrier_dir, f"done-{index}"), "w").close()


class TestConcurrencyStress:
    def test_one_cache_key_hammered_by_concurrent_writers(self, tmp_path):
        """Many processes race one key — including over a stale entry
        that unpickles to a missing module — and all must succeed."""
        root = tmp_path / "cache"
        cache = ProfileCache(root)
        # Seed the address with a stale pickle referencing a module
        # that no longer exists (the refactor scenario).
        cache.get_or_compute("stress", ("shared-key",), lambda: "seed")
        digest_path = next(root.rglob("*.pkl"))
        digest_path.write_bytes(b"cgone_module_xyz\nKlass\n.")
        workers = [
            _FORK.Process(
                target=_hammer_cache_key,
                args=(str(root), str(tmp_path), index),
            )
            for index in range(6)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(worker.exitcode == 0 for worker in workers)
        assert len(list(tmp_path.glob("done-*"))) == 6
        # The stale entry was evicted and rewritten with a good value.
        fresh = ProfileCache(root)
        assert fresh.get_or_compute(
            "stress", ("shared-key",), lambda: "unused"
        ) == {"payload": list(range(200))}
