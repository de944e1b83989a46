"""Tests for the set-associative cache model."""

import random

import pytest

from repro.config import CacheConfig
from repro.memory.cache import Cache


def make_cache(sets=4, ways=2, line=64, replacement="lru", **kwargs):
    size = sets * ways * line
    return Cache(CacheConfig(name="T", size_bytes=size, line_bytes=line,
                             associativity=ways, replacement=replacement,
                             **kwargs))


class TestBasicHitMiss:
    def test_first_access_misses_second_hits(self):
        cache = make_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit

    def test_same_line_different_offset_hits(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x103F).hit

    def test_adjacent_line_misses(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert not cache.access(0x1040).hit

    def test_line_address(self):
        cache = make_cache(line=64)
        assert cache.line_address(0x1234) == 0x1200

    def test_counters(self):
        cache = make_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x40)
        assert cache.counters.get("accesses") == 3
        assert cache.counters.get("hits") == 1
        assert cache.counters.get("misses") == 2
        assert cache.hit_rate == pytest.approx(1 / 3)


class TestLru:
    def test_lru_evicts_least_recently_used(self):
        cache = make_cache(sets=1, ways=2)
        cache.access(0x000)   # way A
        cache.access(0x040)   # way B
        cache.access(0x000)   # touch A -> B is LRU
        cache.access(0x080)   # evicts B
        assert cache.probe(0x000)
        assert not cache.probe(0x040)

    def test_lru_full_set_cycles(self):
        cache = make_cache(sets=1, ways=4)
        for i in range(4):
            cache.access(i * 0x40)
        cache.access(4 * 0x40)  # evicts line 0
        assert not cache.probe(0x000)
        assert all(cache.probe(i * 0x40) for i in range(1, 5))


class TestPlru:
    def test_plru_victim_is_not_most_recent(self):
        cache = make_cache(sets=1, ways=4, replacement="plru")
        for i in range(4):
            cache.access(i * 0x40)
        most_recent = 3 * 0x40
        cache.access(4 * 0x40)  # forces an eviction
        assert cache.probe(most_recent)

    def test_plru_hits_still_work(self):
        cache = make_cache(sets=2, ways=4, replacement="plru")
        cache.access(0x0)
        assert cache.access(0x0).hit


class TestRandom:
    def test_random_replacement_deterministic_with_seed(self):
        config = CacheConfig(name="T", size_bytes=512, line_bytes=64,
                             associativity=4, replacement="random")
        results_a = []
        results_b = []
        for results in (results_a, results_b):
            cache = Cache(config, seed=7)
            for i in range(20):
                results.append(cache.access(i * 0x40 % 0x400).hit)
        assert results_a == results_b

    def test_random_victims_are_pinned(self):
        # Recorded when every set was allocated up front: building sets on
        # first touch must not move a single replacement draw.
        cache = Cache(CacheConfig(name="T", size_bytes=8 * 64, line_bytes=64,
                                  associativity=4, replacement="random"),
                      seed=11)
        pattern = random.Random(5)
        hits = "".join(
            "H" if cache.access(pattern.randrange(12) * 0x40,
                                is_write=i % 3 == 0).hit else "."
            for i in range(60))
        assert hits == ("....HH.....HH..H...HHHH..HHH..HHH.H."
                        "HHHH.HHHHHH..HH...HH.HHH")
        assert cache.flush() == [0x80, 0x180, 0x280, 0x240, 0x140]


class TestWriteback:
    def test_dirty_eviction_reports_writeback_address(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=True)
        result = cache.access(0x040)
        assert result.writeback_address == 0x000

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=False)
        result = cache.access(0x040)
        assert result.writeback_address is None

    def test_write_hit_marks_dirty(self):
        cache = make_cache(sets=1, ways=1)
        cache.access(0x000, is_write=False)
        cache.access(0x000, is_write=True)  # hit, marks dirty
        result = cache.access(0x040)
        assert result.writeback_address == 0x000

    def test_writeback_address_maps_to_same_set(self):
        cache = make_cache(sets=4, ways=1)
        address = 4 * 0x40 * 3 + 0x40  # set 1, some tag
        cache.access(address, is_write=True)
        conflicting = address + 4 * 0x40  # same set, different tag
        result = cache.access(conflicting)
        assert result.writeback_address == cache.line_address(address)


class TestMaintenance:
    def test_probe_does_not_update_state(self):
        cache = make_cache(sets=1, ways=2)
        cache.access(0x000)
        cache.access(0x040)
        cache.probe(0x000)  # must NOT refresh LRU position of line 0
        cache.access(0x080)
        assert not cache.probe(0x000)  # line 0 was still LRU

    def test_invalidate_drops_line(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.probe(0x1000)

    def test_invalidate_missing_line_returns_false(self):
        assert not make_cache().invalidate(0x9000)

    def test_flush_returns_dirty_lines(self):
        cache = make_cache(sets=2, ways=2)
        cache.access(0x000, is_write=True)
        cache.access(0x040, is_write=False)
        dirty = cache.flush()
        assert dirty == [0x000]
        assert not cache.probe(0x000)
        assert not cache.probe(0x040)

    def test_flush_orders_dirty_lines_by_set_index(self):
        # Sets are dirtied from the highest index down; flush still walks
        # them in ascending index order, not in the order they were touched.
        cache = make_cache(sets=8, ways=2)
        for index in (7, 5, 2, 0):
            cache.access(index * 0x40, is_write=True)
            cache.access(index * 0x40 + 8 * 0x40, is_write=True)
        assert cache.flush() == [0x000, 0x200, 0x080, 0x280,
                                 0x140, 0x340, 0x1C0, 0x3C0]

    def test_untouched_set_probe_and_invalidate(self):
        cache = make_cache(sets=4, ways=2)
        cache.access(0x000, is_write=True)  # set 0 only
        assert not cache.probe(0x040)  # set 1, never touched
        assert not cache.invalidate(0x0C0)  # set 3, never touched
        assert cache.counters.get("accesses") == 1
        assert cache.flush() == [0x000]
        fresh = make_cache(sets=4, ways=2)
        assert not fresh.probe(0x1000)
        assert not fresh.invalidate(0x1000)
        assert fresh.flush() == []
        assert fresh.counters.get("accesses") == 0


class TestGeometry:
    def test_distinct_sets_do_not_conflict(self):
        cache = make_cache(sets=4, ways=1)
        # Fill every set; none should evict another.
        for set_index in range(4):
            cache.access(set_index * 0x40)
        assert all(cache.probe(set_index * 0x40) for set_index in range(4))

    def test_single_set_cache(self):
        cache = make_cache(sets=1, ways=4)
        cache.access(0x0)
        assert cache.access(0x0).hit

    def test_direct_mapped(self):
        cache = make_cache(sets=4, ways=1)
        cache.access(0x000)
        cache.access(0x400)  # same set (4 sets * 64 B span = 0x100... depends)
        # 4 sets of 64 B lines: set = (addr >> 6) & 3; 0x000 and 0x100 share set 0.
        cache2 = make_cache(sets=4, ways=1)
        cache2.access(0x000)
        cache2.access(0x100)
        assert not cache2.probe(0x000)
