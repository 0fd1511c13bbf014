"""Integration tests: DataSet (data at rest) programs on the same engine."""

from repro.api import Environment
from repro.windowing import TumblingEventTimeWindows, CountAggregate


def test_map_filter_on_dataset():
    env = Environment(parallelism=2)
    result = (env.from_bounded(range(20))
              .map(lambda x: x * x)
              .filter(lambda x: x % 2 == 0)
              .collect())
    env.execute()
    assert sorted(result.get()) == [x * x for x in range(20) if x % 2 == 0]


def test_group_by_reduce_group_wordcount():
    env = Environment(parallelism=2)
    lines = ["to be or not to be", "that is the question"]
    result = (env.from_bounded(lines)
              .flat_map(str.split)
              .group_by(lambda w: w)
              .count()
              .collect())
    env.execute()
    counts = dict(result.get())
    assert counts["to"] == 2
    assert counts["be"] == 2
    assert counts["question"] == 1
    assert sum(counts.values()) == 10


def test_grouped_pairwise_reduce():
    env = Environment(parallelism=2)
    data = [("a", 1), ("a", 2), ("b", 5)]
    result = (env.from_bounded(data)
              .group_by(lambda kv: kv[0])
              .reduce(lambda x, y: (x[0], x[1] + y[1]))
              .collect())
    env.execute()
    assert sorted(result.get()) == [("a", 3), ("b", 5)]


def test_grouped_sum():
    env = Environment(parallelism=3)
    data = [("x", 1.5), ("y", 2.0), ("x", 0.5)]
    result = (env.from_bounded(data)
              .group_by(lambda kv: kv[0])
              .sum(lambda kv: kv[1])
              .collect())
    env.execute()
    assert sorted(result.get()) == [("x", 2.0), ("y", 2.0)]


def test_distinct():
    env = Environment(parallelism=2)
    result = env.from_bounded([3, 1, 3, 2, 1, 1]).distinct().collect()
    env.execute()
    assert sorted(result.get()) == [1, 2, 3]


def test_distinct_with_key_function():
    env = Environment()
    result = (env.from_bounded(["apple", "avocado", "banana"])
              .distinct(key_fn=lambda w: w[0])
              .collect())
    env.execute()
    assert sorted(result.get()) == ["apple", "banana"]


def test_count():
    env = Environment(parallelism=4)
    result = env.from_bounded(range(123)).count().collect()
    env.execute()
    assert result.get() == [123]


def test_global_fold():
    env = Environment(parallelism=2)
    result = (env.from_bounded(range(10))
              .fold(0, lambda acc, v: acc + v)
              .collect())
    env.execute()
    assert result.get() == [45]


def test_sort_total_order():
    env = Environment(parallelism=3)
    result = env.from_bounded([5, 3, 9, 1, 7]).sort().collect()
    env.execute()
    assert result.get() == [1, 3, 5, 7, 9]


def test_sort_descending_with_key():
    env = Environment()
    data = [("a", 2), ("b", 9), ("c", 4)]
    result = (env.from_bounded(data)
              .sort(key_fn=lambda kv: kv[1], descending=True)
              .collect())
    env.execute()
    assert result.get() == [("b", 9), ("c", 4), ("a", 2)]


def test_hash_join():
    env = Environment(parallelism=2)
    users = env.from_bounded([(1, "alice"), (2, "bob"), (3, "carol")])
    orders = env.from_bounded([(1, 9.99), (1, 5.00), (3, 2.50), (4, 7.00)])
    result = users.join(
        orders,
        left_key=lambda u: u[0],
        right_key=lambda o: o[0],
        join_fn=lambda u, o: (u[1], o[1])).collect()
    env.execute()
    assert sorted(result.get()) == [("alice", 5.00), ("alice", 9.99),
                                    ("carol", 2.50)]


def test_dataset_union():
    env = Environment(parallelism=2)
    left = env.from_bounded([1, 2])
    right = env.from_bounded([3])
    result = left.union(right).collect()
    env.execute()
    assert sorted(result.get()) == [1, 2, 3]


def test_batch_and_stream_share_one_environment():
    """The unified-model smoke test: one env, one engine run, both kinds."""
    env = Environment(parallelism=2)
    batch_result = (env.from_bounded(range(10))
                    .group_by(lambda v: v % 2)
                    .count()
                    .collect())
    stream_result = (env.from_collection([(i, i * 10) for i in range(10)],
                                         timestamped=True)
                     .key_by(lambda v: v % 2)
                     .window(TumblingEventTimeWindows.of(50))
                     .aggregate(CountAggregate())
                     .collect())
    env.execute()
    assert sorted(batch_result.get()) == [(0, 5), (1, 5)]
    assert sum(r.value for r in stream_result.get()) == 10


def test_dataset_as_stream_reinterpretation():
    env = Environment()
    result = (env.from_bounded([("k", 1), ("k", 2)])
              .as_stream()
              .key_by(lambda v: v[0])
              .sum(lambda v: v[1])
              .collect())
    env.execute()
    assert result.get()[-1] == ("k", 3)
