"""``ReplayCursor``: the one place a source iterable is re-created,
dealt by stride and skipped to an offset (``IteratorSource``,
``HybridSource`` and ``PartitionedSource`` all stand on it)."""

import pytest

from repro.runtime.operators import ReplayCursor


class CountingFactory:
    """A replayable input that counts how often it was opened."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return iter(self.values)


def drain(cursor, chunk=3):
    out = []
    while not cursor.exhausted:
        out.extend(cursor.take(chunk))
    return out


@pytest.mark.parametrize("step", [1, 2, 3, 4])
def test_stride_deals_index_modulo_step(step):
    values = list(range(23))
    dealt = [drain(ReplayCursor(lambda: values, start, step))
             for start in range(step)]
    for start, owned in enumerate(dealt):
        assert owned == [v for index, v in enumerate(values)
                         if index % step == start]
    assert sorted(v for owned in dealt for v in owned) == values


def test_take_across_the_end_is_short_and_exhausts():
    cursor = ReplayCursor(lambda: range(5))
    assert cursor.take(3) == [0, 1, 2] and not cursor.exhausted
    assert cursor.take(3) == [3, 4]
    assert cursor.exhausted and cursor.offset == 5
    assert cursor.take(3) == [] and cursor.offset == 5


def test_a_full_last_chunk_needs_one_more_take_to_find_the_end():
    cursor = ReplayCursor(lambda: range(4))
    assert cursor.take(4) == [0, 1, 2, 3] and not cursor.exhausted
    assert cursor.take(1) == [] and cursor.exhausted


def test_rewind_replays_from_the_offset():
    factory = CountingFactory(range(10))
    cursor = ReplayCursor(factory, 1, 2)            # owns 1 3 5 7 9
    assert cursor.take(3) == [1, 3, 5]
    cursor.rewind(1)
    assert (cursor.offset, cursor.exhausted) == (1, False)
    assert drain(cursor) == [3, 5, 7, 9]
    assert factory.calls == 2


def test_rewind_past_the_end_clamps_and_reports_exhausted():
    cursor = ReplayCursor(lambda: range(6), 0, 2)   # owns 0 2 4
    cursor.rewind(7)
    assert (cursor.offset, cursor.exhausted) == (3, True)
    assert cursor.take(2) == []
    cursor.rewind(3)                                # exactly the end
    assert (cursor.offset, cursor.exhausted) == (3, False)
    assert cursor.take(2) == [] and cursor.exhausted


def test_rewind_after_the_factory_shrank():
    factory = CountingFactory(range(10))
    cursor = ReplayCursor(factory)
    assert len(cursor.take(8)) == 8
    del factory.values[4:]
    cursor.rewind(8)
    assert (cursor.offset, cursor.exhausted) == (4, True)


def test_a_position_set_without_reading_never_calls_the_factory():
    factory = CountingFactory(range(10))
    cursor = ReplayCursor(factory)
    assert factory.calls == 0                       # cold when built
    cursor.set_position(10, exhausted=True)         # restored as drained
    assert cursor.take(4) == [] and cursor.offset == 10
    assert factory.calls == 0
    cursor.set_position(6)                          # opened by first take
    assert factory.calls == 0
    assert cursor.take(2) == [6, 7] and cursor.offset == 8
    assert factory.calls == 1
