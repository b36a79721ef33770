"""Tests for repro.cmpsim.memory and repro.cmpsim.cpu."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmpsim.cpu import CPIModel
from repro.cmpsim.config import CacheLevelConfig, MemoryConfig, TABLE1_CONFIG
from repro.cmpsim.memory import AddressStreamState, advance_stream
from repro.compilation.binary import AccessSpec
from repro.errors import SimulationError
from repro.programs.behaviors import AccessKind

from tests.oracles.refs import generate_refs


def _spec(kind, footprint=4096, refs=4, stride=64, read_fraction=0.75,
          stream_id=1, base=0x1000):
    return AccessSpec(
        stream_id=stream_id,
        kind=kind,
        base=base,
        footprint=footprint,
        stride=stride,
        refs_per_exec=refs,
        read_fraction=read_fraction,
    )


class TestGenerateRefs:
    def test_stream_is_strided(self):
        spec = _spec(AccessKind.STREAM, stride=64, refs=4)
        refs = generate_refs(spec, AddressStreamState())
        lines = [line for line, _ in refs]
        assert lines == [lines[0] + i for i in range(4)]

    def test_stream_wraps_at_footprint(self):
        spec = _spec(AccessKind.STREAM, footprint=128, stride=64, refs=4)
        refs = generate_refs(spec, AddressStreamState())
        lines = {line for line, _ in refs}
        assert len(lines) == 2  # only two lines exist in the footprint

    def test_cursor_persists_across_executions(self):
        spec = _spec(AccessKind.STREAM, footprint=1 << 16, refs=2)
        state = AddressStreamState()
        first = generate_refs(spec, state)
        second = generate_refs(spec, state)
        assert second[0][0] > first[-1][0] - 1  # keeps advancing

    def test_random_within_footprint(self):
        spec = _spec(AccessKind.RANDOM, footprint=4096, refs=100)
        refs = generate_refs(spec, AddressStreamState())
        base_line = spec.base >> 6
        end_line = (spec.base + spec.footprint) >> 6
        for line, _ in refs:
            assert base_line <= line <= end_line

    def test_pointer_chase_deterministic(self):
        spec = _spec(AccessKind.POINTER_CHASE, refs=10)
        a = generate_refs(spec, AddressStreamState())
        b = generate_refs(spec, AddressStreamState())
        assert a == b

    def test_blocked_stays_in_window(self):
        spec = _spec(AccessKind.BLOCKED, footprint=1 << 20, stride=16,
                     refs=64)
        refs = generate_refs(spec, AddressStreamState())
        lines = [line for line, _ in refs]
        assert max(lines) - min(lines) <= (8 * 1024) >> 6

    def test_write_fraction_approximate(self):
        spec = _spec(AccessKind.STREAM, refs=1000, read_fraction=0.75)
        refs = generate_refs(spec, AddressStreamState())
        writes = sum(1 for _, write in refs if write)
        assert writes == pytest.approx(250, abs=5)

    def test_zero_refs(self):
        spec = _spec(AccessKind.STREAM, refs=0)
        assert generate_refs(spec, AddressStreamState()) == []

    def test_distinct_streams_have_independent_cursors(self):
        spec_a = _spec(AccessKind.STREAM, stream_id=1)
        spec_b = _spec(AccessKind.STREAM, stream_id=2, base=0x100000)
        state = AddressStreamState()
        generate_refs(spec_a, state)
        before = state.cursors.get(2, 0)
        generate_refs(spec_b, state)
        assert state.cursors[1] == state.cursors[2] + before


class TestAdvanceStream:
    @pytest.mark.parametrize("kind", [
        AccessKind.STREAM, AccessKind.STACK, AccessKind.BLOCKED,
        AccessKind.RANDOM, AccessKind.POINTER_CHASE,
    ])
    @pytest.mark.parametrize("execs", [1, 3, 17])
    def test_advance_equals_generate(self, kind, execs):
        """advance_stream(n) must land exactly where n generate_refs
        calls land — this keeps cold fast-forward deterministic."""
        spec = _spec(kind, footprint=1 << 16, refs=5)
        generated = AddressStreamState()
        for _ in range(execs):
            generate_refs(spec, generated)
        advanced = AddressStreamState()
        advance_stream(spec, advanced, execs)
        next_gen = generate_refs(spec, generated)
        next_adv = generate_refs(spec, advanced)
        assert next_gen == next_adv

    @settings(deadline=None, max_examples=20)
    @given(execs=st.integers(min_value=1, max_value=1000))
    def test_lcg_jump_matches_iteration(self, execs):
        spec = _spec(AccessKind.RANDOM, refs=3)
        slow = AddressStreamState()
        for _ in range(execs):
            generate_refs(spec, slow)
        fast = AddressStreamState()
        advance_stream(spec, fast, execs)
        assert generate_refs(spec, slow) == generate_refs(spec, fast)


class TestCPIModel:
    def test_from_table1(self):
        model = CPIModel.from_config(TABLE1_CONFIG)
        assert model.penalties == (0, 14, 35, 250)

    def test_block_cycles(self):
        model = CPIModel.from_config(TABLE1_CONFIG)
        assert model.block_cycles(100, 1.1, 250) == pytest.approx(360.0)

    def test_rejects_wrong_level_count(self):
        config = MemoryConfig(
            levels=(CacheLevelConfig("only", 1024, 1, 64, 3),)
        )
        with pytest.raises(SimulationError):
            CPIModel.from_config(config)
