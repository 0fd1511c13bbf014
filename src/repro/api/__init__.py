"""The uniform programming model: one environment, one operator
vocabulary, for data at rest and data in motion."""

from repro.api.dataset import DataSet, GroupedDataSet
from repro.api.environment import CollectResult, Environment
from repro.api.stream import (
    ConnectedKeyedStreams,
    ConnectedStreams,
    DataStream,
    KeyedStream,
    WindowedStream,
)

__all__ = [
    "DataSet",
    "GroupedDataSet",
    "CollectResult",
    "Environment",
    "ConnectedKeyedStreams",
    "ConnectedStreams",
    "DataStream",
    "KeyedStream",
    "WindowedStream",
]
