"""Unit tests for the columnar batch layout, its wire codec and the
fused column kernels.

The contract under test is *losslessness*: row -> columnar -> row (and
columnar -> bytes -> columnar -> row) must reproduce the exact records,
including ``None`` timestamps, exact value types (``bool`` is not
``int``), keys of every kind, and empty strings.  Schema inference must
refuse -- returning ``None`` so the caller keeps the row batch -- rather
than ever coercing.
"""

import pytest

from repro.plan.chaining import compile_column_chain
from repro.runtime.columnar import (
    KIND_F64,
    KIND_I64,
    KIND_NONE,
    KIND_OBJ,
    KIND_STR,
    ColumnarCodecError,
    ColumnSchema,
    batch_to_columnar,
    decode_columnar,
    encode_columnar,
    materialize_records,
)
from repro.runtime.elements import ColumnarBatch, Record, RecordBatch
from repro.runtime.operators import (
    FilterOperator,
    FlatMapOperator,
    MapOperator,
)


def roundtrip(records):
    batch = batch_to_columnar(records)
    assert batch is not None, "expected a schematizable batch"
    assert materialize_records(batch) == list(records)
    decoded = decode_columnar(bytes(encode_columnar(batch)))
    assert decoded.schema == batch.schema
    assert materialize_records(decoded) == list(records)
    return batch


class TestSchemaInference:
    def test_scalar_i64(self):
        batch = roundtrip([Record(i, i * 10) for i in range(8)])
        assert batch.schema == ColumnSchema(KIND_I64, KIND_NONE, 0,
                                            (KIND_I64,))

    def test_scalar_f64_and_str(self):
        assert roundtrip([Record(float(i), i) for i in range(4)]
                         ).schema.value_kinds == (KIND_F64,)
        assert roundtrip([Record("s%d" % i, i) for i in range(4)]
                         ).schema.value_kinds == (KIND_STR,)

    def test_tuple_values_get_per_position_columns(self):
        records = [Record((i, float(i), "x%d" % i), i) for i in range(6)]
        batch = roundtrip(records)
        assert batch.schema.arity == 3
        assert batch.schema.value_kinds == (KIND_I64, KIND_F64, KIND_STR)

    def test_mixed_tuple_position_degrades_to_obj_column(self):
        records = [Record((i, [i]), i) for i in range(4)]
        batch = roundtrip(records)
        assert batch.schema.value_kinds == (KIND_I64, KIND_OBJ)

    def test_scalar_object_refuses(self):
        # A whole-value object column is a pickle with extra steps.
        assert batch_to_columnar([Record([1, 2], 0)]) is None
        assert batch_to_columnar([]) is None

    def test_bool_is_not_i64(self):
        # array('q') would coerce True -> 1; exact types only.
        assert batch_to_columnar([Record(True, 0)]) is None
        records = [Record((1, True), 0), Record((2, False), 1)]
        assert roundtrip(records).schema.value_kinds == (KIND_I64, KIND_OBJ)

    def test_oversized_int_falls_out_of_i64(self):
        records = [Record((2 ** 70, 1), 0)]
        assert roundtrip(records).schema.value_kinds == (KIND_OBJ, KIND_I64)

    def test_none_timestamps_survive(self):
        records = [Record(1, None), Record(2, 5), Record(3, None)]
        batch = roundtrip(records)
        assert batch.timestamp_list() == [None, 5, None]
        all_none = roundtrip([Record(1, None), Record(2, None)])
        assert all_none.schema.ts_kind == KIND_NONE

    def test_non_int_timestamp_refuses(self):
        assert batch_to_columnar([Record(1, 1.5)]) is None

    def test_key_kinds(self):
        assert roundtrip([Record(1, 0, key=7)]).schema.key_kind == KIND_I64
        assert roundtrip([Record(1, 0, key="k")]).schema.key_kind == KIND_STR
        assert roundtrip([Record(1, 0, key=(1, 2))]
                         ).schema.key_kind == KIND_OBJ
        assert roundtrip([Record(1, 0)]).schema.key_kind == KIND_NONE

    def test_empty_and_unicode_strings(self):
        roundtrip([Record("", 0), Record("héllo ☃", 1), Record("", 2)])

    def test_each_batch_infers_its_own_schema(self):
        first = batch_to_columnar([Record(i, i) for i in range(4)])
        again = batch_to_columnar([Record(9, 9)])
        assert again.schema == first.schema
        # A stream whose values change type: the next batch infers its
        # own schema, it does not fail.
        drifted = batch_to_columnar([Record("now a string", 3)])
        assert drifted.schema.value_kinds == (KIND_STR,)


class TestColumnarBatchElement:
    def test_is_a_batch_to_row_consumers(self):
        batch = batch_to_columnar([Record(1, 0), Record(2, 1)])
        assert batch.is_batch and batch.is_columnar
        assert not RecordBatch([Record(1, 0)]).is_columnar
        assert len(batch) == 2
        assert batch.records == [Record(1, 0), Record(2, 1)]

    def test_equals_row_twin_and_hash(self):
        records = [Record((1, "a"), 0, key="k"), Record((2, "b"), 1)]
        batch = batch_to_columnar(records)
        row = RecordBatch(list(records))
        assert batch == row and row == batch
        assert hash(batch) == hash(row)

    def test_slice(self):
        records = [Record(i, i) for i in range(10)]
        batch = batch_to_columnar(records)
        part = batch.slice(3, 7)
        assert isinstance(part, ColumnarBatch)
        assert part.records == records[3:7]

    def test_record_batch_hash_regression(self):
        # RecordBatch defined __eq__ without __hash__ for several
        # releases, silently becoming unhashable.
        a = RecordBatch([Record(1, 0), Record(2, 1)])
        b = RecordBatch([Record(1, 0), Record(2, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestCodecErrors:
    def test_truncated_frame(self):
        payload = encode_columnar(batch_to_columnar([Record(1, 0)]))
        for cut in (0, 3, len(payload) // 2, len(payload) - 1):
            with pytest.raises(ColumnarCodecError):
                decode_columnar(payload[:cut])

    def test_marks_outside_the_batch_or_out_of_order(self):
        batch = batch_to_columnar([Record(1, 0), Record(2, 1)])
        for marks in ([(3, 5)], [(2, 5), (1, 6)], [(-1, 5)]):
            batch.marks = marks
            with pytest.raises(ColumnarCodecError):
                decode_columnar(encode_columnar(batch))

    def test_garbage_frame(self):
        with pytest.raises(ColumnarCodecError):
            decode_columnar(b"\xde\xad\xbe\xef" * 8)


class TestColumnKernels:
    def test_map_filter_flatmap_kernels_match_row_path(self):
        records = [Record(i, i, key=i % 3) for i in range(20)]
        ops = [MapOperator(lambda v: v * 2, name="m"),
               FilterOperator(lambda v: v % 3 != 0, name="f"),
               FlatMapOperator(lambda v: [v, v + 1], name="fm")]
        kernel, prefix = compile_column_chain(ops)
        assert kernel is not None and prefix == 3
        values, timestamps, keys = kernel(
            [r.value for r in records],
            [r.timestamp for r in records],
            [r.key for r in records])
        expected = []
        for r in records:
            v = r.value * 2
            if v % 3 != 0:
                expected.extend([(v, r.timestamp, r.key),
                                 (v + 1, r.timestamp, r.key)])
        assert list(zip(values, timestamps, keys)) == expected

    def test_filter_all_kept_returns_identity(self):
        kernel = FilterOperator(lambda v: True, name="f").make_column_kernel()
        values, timestamps, keys = [1, 2], [0, 1], [None, None]
        out = kernel(values, timestamps, keys)
        assert out[0] is values and out[1] is timestamps and out[2] is keys

    def test_stateful_operator_breaks_the_chain(self):
        from repro.runtime.operators import KeyedReduceOperator
        ops = [MapOperator(lambda v: v, name="m"),
               KeyedReduceOperator(lambda a, b: a + b, name="r"),
               MapOperator(lambda v: v, name="m2")]
        kernel, prefix = compile_column_chain(ops)
        assert kernel is not None and prefix == 1
        assert compile_column_chain(
            [KeyedReduceOperator(lambda a, b: a + b, name="r")]) == (None, 0)
