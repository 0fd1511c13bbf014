"""DataSet/DataStream vocabulary parity: the uniform programming model
means one operator vocabulary for data at rest and data in motion.

The verbs both handles spell the same way are one definition on their
shared base (``SHARED_VERBS``); the matrix below is the contract for the
rest: every listed method must exist on both sides with call-compatible
leading parameters, and a pipeline written in the shared vocabulary must
produce the same answer in either domain.
"""

import ast
import inspect
import os

import pytest

from repro.api import (
    DataSet,
    DataStream,
    Environment,
    GroupedDataSet,
    KeyedStream,
)

#: Verbs written once: both classes must resolve them to one function.
SHARED_VERBS = ["map", "flat_map", "filter", "union", "collect", "add_sink"]

#: (batch class, stream class, method) triples that must agree.  The
#: shared verbs agree by construction (see
#: ``test_shared_verbs_are_one_definition``); their rows only keep the
#: reflection checks' test ids stable.
PARITY_MATRIX = [(DataSet, DataStream, verb) for verb in SHARED_VERBS] + [
    (DataSet, DataStream, "group_by"),
    (DataSet, DataStream, "key_by"),
    (GroupedDataSet, KeyedStream, "reduce"),
    (GroupedDataSet, KeyedStream, "fold"),
    (GroupedDataSet, KeyedStream, "sum"),
    (GroupedDataSet, KeyedStream, "count"),
]


def _leading_params(cls, method):
    """Positional parameter names up to the first defaulted/variadic one
    -- the part of the signature callers actually rely on."""
    signature = inspect.signature(getattr(cls, method))
    names = []
    for param in signature.parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            names.append("*")
            break
        if param.default is not param.empty:
            break
        names.append(param.name)
    return names


class TestParityMatrix:
    def test_shared_verbs_are_one_definition(self):
        for verb in SHARED_VERBS + ["_edge_partitioner", "_connect"]:
            assert getattr(DataSet, verb) is getattr(DataStream, verb), (
                "%s is defined twice" % verb)
            assert verb not in vars(DataSet) and verb not in vars(DataStream)

    @pytest.mark.parametrize(
        "batch_cls,stream_cls,method",
        PARITY_MATRIX,
        ids=["%s/%s.%s" % (b.__name__, s.__name__, m)
             for b, s, m in PARITY_MATRIX])
    def test_method_exists_on_both_sides(self, batch_cls, stream_cls,
                                         method):
        assert callable(getattr(batch_cls, method, None)), (
            "%s.%s missing" % (batch_cls.__name__, method))
        assert callable(getattr(stream_cls, method, None)), (
            "%s.%s missing" % (stream_cls.__name__, method))

    @pytest.mark.parametrize(
        "batch_cls,stream_cls,method",
        PARITY_MATRIX,
        ids=["%s/%s.%s" % (b.__name__, s.__name__, m)
             for b, s, m in PARITY_MATRIX])
    def test_leading_parameters_agree(self, batch_cls, stream_cls, method):
        assert (_leading_params(batch_cls, method)
                == _leading_params(stream_cls, method))

    def test_key_by_and_group_by_are_aliases(self):
        env = Environment()
        words = ["a", "b", "a"]
        grouped = env.read(words).group_by(lambda w: w)
        keyed_set = env.read(words).key_by(lambda w: w)
        assert type(grouped) is type(keyed_set) is GroupedDataSet
        keyed = env.from_collection(words).key_by(lambda w: w)
        grouped_stream = env.from_collection(words).group_by(lambda w: w)
        assert type(keyed) is type(grouped_stream) is KeyedStream


def word_count(entry):
    """One pipeline body in the shared vocabulary: works on a DataSet
    or a DataStream without modification."""
    return (entry
            .flat_map(str.split)
            .filter(lambda word: len(word) > 1)
            .group_by(lambda word: word)
            .count()
            .collect())


LINES = ["the quick brown fox", "the lazy dog", "a fox"]
EXPECTED = {("the", 2), ("quick", 1), ("brown", 1), ("fox", 2),
            ("lazy", 1), ("dog", 1)}


class TestOneBodyBothDomains:
    def test_batch_domain(self):
        env = Environment(parallelism=2)
        result = word_count(env.read(LINES))
        env.execute()
        assert dict(result.get()) == dict(EXPECTED)

    def test_stream_domain(self):
        # Streaming counts are *running* counts; keyed order makes the
        # last record per key the final tally.
        env = Environment(parallelism=2)
        result = word_count(env.from_collection(LINES))
        env.execute()
        assert dict(result.get()) == dict(EXPECTED)

    def test_fold_agrees_across_domains(self):
        values = [("a", 1), ("a", 2), ("b", 5)]

        def concat(acc, value):
            return acc + [value[1]]

        batch_env = Environment()
        batch = (batch_env.read(values)
                 .group_by(lambda v: v[0])
                 .fold([], concat).collect())
        batch_env.execute()

        stream_env = Environment()
        stream = (stream_env.from_collection(values)
                  .key_by(lambda v: v[0])
                  .fold([], concat).collect())
        stream_env.execute()

        # Batch folds emit once per group; streams emit one running
        # fold per record -- the *final* per-key value must agree.
        final_stream = {}
        for key, acc in stream.get():
            final_stream[key] = acc
        assert dict(batch.get()) == final_stream

    def test_union_varargs_merges_all_inputs(self):
        env = Environment()
        merged = (env.read([1, 2])
                  .union(env.read([3]), env.read([4, 5]))
                  .collect())
        env.execute()
        assert sorted(merged.get()) == [1, 2, 3, 4, 5]

        env2 = Environment()
        streams = env2.from_collection([1]).union(
            env2.from_collection([2]), env2.from_collection([3]))
        out = streams.collect()
        env2.execute()
        assert sorted(out.get()) == [1, 2, 3]

    @pytest.mark.parametrize("entry", ["read", "from_collection"])
    def test_union_adds_no_vertex_and_flattens(self, entry):
        env = Environment()
        a, b, c = (getattr(env, entry)([n]) for n in (1, 2, 3))
        merged = a.union(b.union(c))
        assert type(merged) is type(a) and len(env.graph.nodes) == 3
        out = merged.map(lambda v: v * 10).collect()
        env.execute()
        assert sorted(out.get()) == [10, 20, 30]

    @pytest.mark.parametrize("entry", ["read", "from_collection"])
    def test_union_survives_the_keyed_verb(self, entry):
        env = Environment(parallelism=2)
        left = getattr(env, entry)([("a", 1), ("b", 2)])
        right = getattr(env, entry)([("a", 3)])
        out = (left.union(right).group_by(lambda v: v[0])
               .reduce(lambda x, y: (x[0], x[1] + y[1])).collect())
        env.execute()
        assert dict(out.get()) == {"a": 4, "b": 2}

    @pytest.mark.parametrize("verb,expected", [
        (lambda d: d.distinct(), [1, 2, 3]),
        (lambda d: d.sort(), [1, 2, 2, 3]),
        (lambda d: d.count(), [4]),
        (lambda d: d.fold(0, lambda acc, v: acc + v), [8]),
    ], ids=["distinct", "sort", "count", "fold"])
    def test_union_survives_the_global_batch_verbs(self, verb, expected):
        env = Environment(parallelism=2)
        out = verb(env.read([2, 1]).union(env.read([2, 3]))).collect()
        env.execute()
        assert sorted(out.get()) == expected

    def test_union_survives_a_batch_join(self):
        env = Environment(parallelism=2)
        x, y = env.read([("k", "x")]), env.read([("k", "y")])
        z, w = env.read([("k", "z")]), env.read([("k", "w")])
        out = x.union(y).join(z.union(w), lambda v: v[0],
                              lambda v: v[0],
                              lambda l, r: l[1] + r[1]).collect()
        env.execute()
        assert sorted(out.get()) == ["xw", "xz", "yw", "yz"]

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "plain"])
    def test_union_survives_connect(self, keyed):
        # The parent wired only ``a`` into input 0: b's record vanished.
        env = Environment()
        a, b, c = (env.from_collection([("k", n)]) for n in "abc")
        connected = a.union(b).connect(c)
        if keyed:
            connected = connected.key_by(lambda v: v[0], lambda v: v[0])
        out = connected.process(
            lambda v, ctx: ctx.emit((0, v[1])),
            lambda v, ctx: ctx.emit((1, v[1]))).collect()
        env.execute()
        assert sorted(out.get()) == [(0, "a"), (0, "b"), (1, "c")]

    def test_union_survives_window_join(self):
        from repro.time.watermarks import WatermarkStrategy
        from repro.windowing.assigners import TumblingEventTimeWindows
        env = Environment()
        stamped = WatermarkStrategy.for_monotonic_timestamps(lambda v: 1)
        a, b, c = (env.from_collection([("k", n + "1")])
                   .assign_timestamps_and_watermarks(stamped) for n in "abc")
        out = a.union(b).window_join(
            c, lambda v: v[0], lambda v: v[0],
            TumblingEventTimeWindows.of(100)).collect()
        env.execute()
        assert sorted(out.get()) == [(("k", "a1"), ("k", "c1")),
                                     (("k", "b1"), ("k", "c1"))]

    def test_union_of_nothing_is_identity(self):
        env = Environment()
        data = env.read([1, 2, 3])
        assert data.union() is data


# -- one wiring routine ------------------------------------------------------

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _graph_growers():
    """``{(file, function)}`` under ``api/`` and ``table/`` that call
    ``new_node`` / ``add_edge`` on something called ``graph``."""
    found = set()

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("new_node", "add_edge")
                and getattr(node.func.value, "attr",
                            getattr(node.func.value, "id", "")) == "graph"):
            found.add((path, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for package in ("api", "table"):
        for name in sorted(os.listdir(os.path.join(SRC, package))):
            if name.endswith(".py"):
                path = "%s/%s" % (package, name)
                with open(os.path.join(SRC, path)) as handle:
                    visit(ast.parse(handle.read()), path, [])
    return found


def test_only_the_wiring_routine_grows_the_graph():
    """A vertex added by hand skips the union / override rule of
    ``repro.api.handle._wire``; a new site fails here by name."""
    assert _graph_growers() == {
        ("api/handle.py", "_wire"),
        ("api/environment.py", "Environment._source"),
    }
