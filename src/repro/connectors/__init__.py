"""Sources and sinks connecting the unified API to files and generators."""

from repro.connectors.partitioned import (
    PartitionedSource,
    partition_round_robin,
)
from repro.connectors.sinks import (
    TransactionalCsvFileSink,
    TransactionalJsonlFileSink,
    TransactionalSink,
    TransactionalSinkOperator,
    TransactionalTextFileSink,
)
from repro.connectors.sources import (
    HybridSource,
    csv_records,
    jsonl_records,
    text_file_lines,
    throttled,
)

__all__ = [
    "HybridSource",
    "PartitionedSource",
    "partition_round_robin",
    "TransactionalCsvFileSink",
    "TransactionalJsonlFileSink",
    "TransactionalSink",
    "TransactionalSinkOperator",
    "TransactionalTextFileSink",
    "csv_records",
    "jsonl_records",
    "text_file_lines",
    "throttled",
]
