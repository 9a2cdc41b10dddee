"""randlc generator: exactness, jump-ahead, power-table chunk equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.npb.common import (
    DEFAULT_MULTIPLIER,
    DEFAULT_SEED,
    POWER_TABLE_LEN,
    NPBClass,
    Randlc,
    Timer,
    _power_table,
    randlc_jump_multiplier,
)

MASK = (1 << 46) - 1
B = POWER_TABLE_LEN


class ScalarReference:
    """Independent straight-line reference: one Python-int step per value."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.x = seed

    def next(self) -> float:
        self.x = (DEFAULT_MULTIPLIER * self.x) & MASK
        return self.x / float(1 << 46)

    def draw(self, k: int) -> list[float]:
        return [self.next() for _ in range(k)]


def scalar_reference(seed: int, n: int) -> list[float]:
    return ScalarReference(seed).draw(n)


class TestRandlc:
    def test_scalar_next_matches_reference(self):
        rng = Randlc()
        assert [rng.next() for _ in range(100)] == scalar_reference(314159265, 100)

    def test_vectorised_generate_matches_reference(self):
        rng = Randlc()
        got = rng.generate(10_000, block=64)
        assert np.allclose(got, scalar_reference(314159265, 10_000), rtol=0, atol=0)

    def test_generate_then_next_continues_stream(self):
        a = Randlc()
        b = Randlc()
        a.generate(777)
        ref = scalar_reference(314159265, 778)
        assert a.next() == ref[777]
        del b

    def test_block_size_does_not_change_output(self):
        outs = [Randlc().generate(5000, block=b) for b in (1, 7, 512, 4096, 8192)]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    def test_skip_equals_discard(self):
        a = Randlc()
        b = Randlc()
        a.skip(12345)
        b.generate(12345)
        assert a.state == b.state

    def test_values_in_open_unit_interval(self):
        u = Randlc().generate(100_000)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)

    def test_roughly_uniform(self):
        u = Randlc().generate(200_000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_zero_count(self):
        assert Randlc().generate(0).shape == (0,)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            Randlc(seed=0)
        with pytest.raises(ValueError):
            Randlc(seed=1 << 46)

    def test_mixed_next_generate_matches_scalar_reference(self):
        scalar, rng = ScalarReference(), Randlc()
        # Mixed next()/generate() patterns, including draws longer than
        # one power-table chunk, must consume the identical stream.
        for k in (1, 1, 7, 1500, 2, 1024, 3, 2500, B + 1):
            assert np.array_equal(scalar.draw(k), rng.generate(k))
            assert scalar.x == rng.state
        for _ in range(100):
            assert scalar.next() == rng.next()
        assert scalar.x == rng.state

    def test_reseeding_from_state_continues_stream(self):
        a = Randlc()
        a.generate(777)
        b = Randlc(a.state)
        assert np.array_equal(a.generate(50), b.generate(50))


class TestPowerTableStream:
    """``generate`` against the scalar reference around chunk boundaries."""

    def test_table_holds_read_only_powers(self):
        table = _power_table(DEFAULT_MULTIPLIER)
        assert table.shape == (B,)
        assert not table.flags.writeable
        for i in (0, 1, 2, 1000, B // 2 - 1, B // 2, B - 1):
            assert int(table[i]) == randlc_jump_multiplier(DEFAULT_MULTIPLIER, i + 1)

    @given(
        seed=st.integers(1, MASK),
        n=st.sampled_from([B - 1, B, B + 1, 3 * B + 5]),
        block=st.sampled_from([B, 4096, 4097, B - 1, B + 1]),
    )
    @settings(max_examples=12, deadline=None)
    def test_generate_matches_reference_across_chunk_edges(self, seed, n, block):
        scalar, rng = ScalarReference(seed), Randlc(seed=seed)
        assert np.array_equal(rng.generate(n, block=block), scalar.draw(n))
        assert rng.state == scalar.x

    @given(
        seed=st.integers(1, MASK),
        n=st.integers(0, 300),
        block=st.integers(1, 17),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_blocks_match_reference(self, seed, n, block):
        scalar, rng = ScalarReference(seed), Randlc(seed=seed)
        assert np.array_equal(rng.generate(n, block=block), scalar.draw(n))
        assert rng.state == scalar.x

    @given(
        seed=st.integers(1, MASK),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("next"), st.just(1)),
                st.tuples(st.just("generate"), st.integers(0, 2 * B + 3)),
                st.tuples(st.just("skip"), st.integers(0, B + 2)),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_mixed_operations_match_reference(self, seed, ops):
        scalar, rng = ScalarReference(seed), Randlc(seed=seed)
        for op, k in ops:
            if op == "next":
                assert rng.next() == scalar.next()
            elif op == "generate":
                assert np.array_equal(rng.generate(k), scalar.draw(k))
            else:
                rng.skip(k)
                scalar.draw(k)
            assert rng.state == scalar.x


class TestJumpMultiplier:
    def test_identity(self):
        assert randlc_jump_multiplier(DEFAULT_MULTIPLIER, 0) == 1

    def test_one_step(self):
        assert randlc_jump_multiplier(DEFAULT_MULTIPLIER, 1) == DEFAULT_MULTIPLIER & MASK

    @given(i=st.integers(0, 10_000), j=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_composition(self, i, j):
        a = DEFAULT_MULTIPLIER
        combined = randlc_jump_multiplier(a, i + j)
        split = (
            randlc_jump_multiplier(a, i) * randlc_jump_multiplier(a, j)
        ) & MASK
        assert combined == split

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            randlc_jump_multiplier(DEFAULT_MULTIPLIER, -1)


class TestNPBClass:
    def test_ordering(self):
        assert NPBClass.S < NPBClass.W < NPBClass.A < NPBClass.B < NPBClass.C

    def test_rank(self):
        assert NPBClass.C.rank == 4


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed_s >= 0.0
