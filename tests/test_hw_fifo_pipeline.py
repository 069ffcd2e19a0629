"""Fifo under pipelined producer/consumer use (repro.hw.fifo).

The buffer suite (test_hw_fifo_buffers) covers the CU-datapath sizing
story; this suite covers the FIFO as a producer/consumer queue: error
paths under overflow and underflow, occupancy invariants over arbitrary
interleavings, and a hypothesis round-trip property (FIFO order survives
any legal producer/consumer schedule).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.fifo import Fifo, FifoOverflow, FifoUnderflow


class TestProducerConsumerErrors:
    def test_overflow_raises_and_counts_stall(self):
        fifo = Fifo(depth=2)
        fifo.push(0, 10)
        fifo.push(1, 11)
        with pytest.raises(FifoOverflow):
            fifo.push(2, 12)
        # The failed push is accounted as a stall, not a push.
        assert fifo.push_stalls == 1
        assert fifo.pushes == 2
        assert len(fifo) == 2

    def test_underflow_raises_without_counting_a_pop(self):
        fifo = Fifo(depth=1)
        with pytest.raises(FifoUnderflow):
            fifo.pop()
        assert fifo.pops == 0
        fifo.push(0, 5)
        assert fifo.pop() == (0, 5)
        with pytest.raises(FifoUnderflow):
            fifo.pop()
        assert fifo.pops == 1

    def test_try_push_backpressure_then_drain(self):
        """A blocked producer retries after the consumer frees a slot."""
        fifo = Fifo(depth=1)
        assert fifo.try_push(0, 0)
        assert not fifo.try_push(1, 1)  # consumer hasn't drained yet
        assert fifo.pop() == (0, 0)
        assert fifo.try_push(1, 1)  # retry succeeds after the pop
        assert fifo.pop() == (1, 1)
        assert fifo.push_stalls == 1
        assert fifo.pushes == 2
        assert fifo.pops == 2


class TestOccupancyInvariants:
    def test_max_occupancy_tracks_high_water_mark(self):
        fifo = Fifo(depth=4)
        for tag in range(3):
            fifo.push(tag, tag)
        fifo.pop()
        fifo.push(3, 3)
        assert fifo.max_occupancy == 3
        assert len(fifo) == 3

    def test_full_and_empty_flags(self):
        fifo = Fifo(depth=2)
        assert fifo.empty and not fifo.full
        fifo.push(0, 0)
        assert not fifo.empty and not fifo.full
        fifo.push(1, 1)
        assert fifo.full
        assert fifo.peek() == (0, 0)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            Fifo(depth=0)


class TestRoundTripProperty:
    @given(
        depth=st.integers(min_value=1, max_value=8),
        # Producer/consumer interleaving: True = try_push next token,
        # False = pop (when non-empty).
        schedule=st.lists(st.booleans(), min_size=1, max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_fifo_order_survives_any_schedule(self, depth, schedule):
        """Tokens come out in push order under every legal interleaving,
        counters balance, and occupancy never exceeds the depth."""
        fifo = Fifo(depth=depth)
        next_token = 0
        pushed = []
        popped = []
        for produce in schedule:
            if produce:
                if fifo.try_push(next_token, next_token * 7):
                    pushed.append(next_token)
                    next_token += 1
            elif not fifo.empty:
                popped.append(fifo.pop())
            assert len(fifo) <= depth
            assert fifo.max_occupancy <= depth
        while not fifo.empty:
            popped.append(fifo.pop())
        assert [tag for tag, _ in popped] == pushed
        assert all(value == tag * 7 for tag, value in popped)
        assert fifo.pushes == len(pushed)
        assert fifo.pops == len(popped)
        assert fifo.pushes - fifo.pops == len(fifo) == 0

