"""Partitioners: how records are routed across the parallel subtasks of a
downstream operator.

An edge between an operator with parallelism *p* and one with parallelism
*q* is realised as *p x q* channels; each upstream subtask asks its edge's
partitioner which of its *q* outgoing channels a record goes to.  The
repertoire matches the Flink model STREAMLINE sits on:

* ``forward``   -- subtask i -> subtask i (requires p == q; enables chaining),
* ``hash``      -- by key selector, the basis of keyed state,
* ``rebalance`` -- round robin, for load balancing after skewed stages,
* ``broadcast`` -- every record to every subtask,
* ``global``    -- everything to subtask 0 (e.g. final ordered sinks).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.runtime.elements import Record

KeySelector = Callable[[Any], Any]


#: Fixed digest for ``None`` keys: an FNV-1a offset-basis variant, never
#: produced by the value encodings below (which stay < 2**64).
_NONE_DIGEST = 0xD2B1A4FD5E91C377
#: Digest for NaN floats.  NaN compares unequal to everything (itself
#: included), so no co-location constraint exists and a constant is the
#: only run-stable choice (CPython >= 3.10 hashes NaN by object id).
_NAN_DIGEST = 0x7FF8A11E5D00D1CE

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 2**64


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) % _U64
    return value


#: FNV-1a digests of the exact-type ``str``/``bytes`` keys hashed so far:
#: the byte loop above is paid once per distinct key, not once per
#: record.  It memoises the digest of *text*, never a route: ``str`` and
#: ``bytes`` never equal anything of another type, so no two keys that
#: :func:`hash_key` tells apart can share an entry.  Cleared when full,
#: so a key space larger than the bound costs misses, not memory.
_TEXT_DIGESTS: Dict[Union[str, bytes], int] = {}
_TEXT_DIGESTS_BOUND = 1 << 16
#: Longer keys are hashed every time: the memo holds its keys alive, and
#: the bound above counts entries, not bytes.
_MEMOISED_TEXT_LEN = 256


def _digest_new_text(text: Union[str, bytes]) -> int:
    digest = _fnv1a(text.encode("utf-8") if type(text) is str else text)
    if len(text) <= _MEMOISED_TEXT_LEN:
        if len(_TEXT_DIGESTS) >= _TEXT_DIGESTS_BOUND:
            _TEXT_DIGESTS.clear()
        _TEXT_DIGESTS[text] = digest
    return digest


def hash_key(key: Any) -> int:
    """Deterministic key hash, stable *across interpreter runs*.

    Placement of keyed state (and therefore replay, rescale and
    cross-worker exchange in the multiprocess backend) hangs off this
    function, so every supported key type is encoded explicitly:

    * ``str``/``bytes`` -- FNV-1a (builtin ``hash()`` is salted per run
      via PYTHONHASHSEED), computed once per distinct key;
    * ``None`` -- a fixed digest (builtin ``hash(None)`` is
      address-based on CPython < 3.12 and changes across runs);
    * ``bool``/``int``/``float`` -- an integer encoding that respects
      Python's cross-type equality (``True == 1 == 1.0`` must co-locate
      because they are the same dict key), never builtin ``hash()``;
    * ``tuple`` -- combined recursively from its parts.

    Objects whose type inherits ``object.__hash__`` hash by memory
    address -- unstable across runs by construction -- so they are
    rejected with a ``TypeError`` naming the type, rather than silently
    breaking reproducibility.  Other custom ``__hash__``
    implementations are trusted as a documented escape hatch (they must
    be run-stable, e.g. derived from the encodings above).
    """
    kind = type(key)
    if kind is str or kind is bytes:
        # Subclasses may redefine equality; only the exact types are
        # remembered (they take the unmemoised branches below).
        digest = _TEXT_DIGESTS.get(key)
        return digest if digest is not None else _digest_new_text(key)
    if key is None:
        return _NONE_DIGEST
    if isinstance(key, str):
        return _fnv1a(key.encode("utf-8"))
    if isinstance(key, bytes):
        return _fnv1a(key)
    if isinstance(key, (bool, int)):
        # bool is an int subclass; int(True) == 1 keeps True/1 together.
        return int(key) % _U64
    if isinstance(key, float):
        if key != key:  # NaN
            return _NAN_DIGEST
        if key in (float("inf"), float("-inf")):
            return _fnv1a(_float_pack(key))
        if key.is_integer():
            # 2.0 == 2 (and -0.0 == 0) must land on the same channel.
            return int(key) % _U64
        return _fnv1a(_float_pack(key))
    if isinstance(key, tuple):
        value = 0x345678
        for part in key:
            value = (value * 1000003) ^ hash_key(part)
            value %= _U64
        return value
    if getattr(type(key), "__hash__", None) in (None, object.__hash__):
        raise TypeError(
            "cannot hash-partition key of type %r: its hash is "
            "identity-based (or undefined) and changes across interpreter "
            "runs, which would break deterministic placement; use a value "
            "type (str, bytes, int, float, bool, None, tuple) or define a "
            "run-stable __hash__" % type(key).__name__)
    return hash(key)


def _float_pack(value: float) -> bytes:
    import struct
    return struct.pack("<d", value)


def owner_of_key(key: Any, parallelism: int) -> int:
    """Which of ``parallelism`` subtasks owns ``key``: the channel a hash
    edge routes it to, hence where its keyed state and timers live, what
    queryable state probes and what a savepoint rescale filters by."""
    return hash_key(key) % parallelism


class Partitioner:
    """Chooses target channel indices for each record."""

    name = "abstract"

    def select(self, record: Record, num_channels: int,
               subtask_index: int) -> Sequence[int]:
        raise NotImplementedError

    @property
    def is_pointwise(self) -> bool:
        """Pointwise partitioners connect subtask i only to subtask i and
        therefore permit operator chaining."""
        return False

    def clone(self) -> "Partitioner":
        """A per-subtask instance.  Stateless partitioners are shared
        (return ``self``); stateful ones (rebalance) return a fresh copy
        so each upstream subtask owns -- and checkpoints -- its own
        routing state."""
        return self

    def snapshot_state(self) -> Optional[Any]:
        """Routing state to include in the owning task's checkpoint
        snapshot, or ``None`` for stateless partitioners."""
        return None

    def restore_state(self, state: Any) -> None:
        """Restore routing state captured by :meth:`snapshot_state`."""

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class ForwardPartitioner(Partitioner):
    """Subtask ``i`` feeds only subtask ``i``; the chaining-eligible edge."""

    name = "forward"

    def select(self, record: Record, num_channels: int,
               subtask_index: int) -> Sequence[int]:
        return (subtask_index % num_channels,)

    @property
    def is_pointwise(self) -> bool:
        return True


class HashPartitioner(Partitioner):
    """Routes by hashed key.

    ``select`` is pure: the output edge runtime stamps the key onto a
    *copy* of the record, because a record broadcast to several edges
    must not be mutated in place.
    """

    name = "hash"

    def __init__(self, key_selector: KeySelector) -> None:
        self.key_selector = key_selector

    def select(self, record: Record, num_channels: int,
               subtask_index: int) -> Sequence[int]:
        return (owner_of_key(self.key_selector(record.value), num_channels),)


class RebalancePartitioner(Partitioner):
    """Round-robin; stateful per upstream subtask.

    The cursor is part of the exactly-once cut: it is captured in task
    snapshots and restored on recovery, so post-restore round-robin
    placement replays the original run's routing instead of resuming
    from the crash-time cursor (which would diverge on rebalance edges
    feeding stateful operators).
    """

    name = "rebalance"

    def __init__(self) -> None:
        self._next = 0

    def clone(self) -> "RebalancePartitioner":
        return RebalancePartitioner()

    def snapshot_state(self) -> Optional[Any]:
        return {"next": self._next}

    def restore_state(self, state: Any) -> None:
        self._next = state["next"]

    def select(self, record: Record, num_channels: int,
               subtask_index: int) -> Sequence[int]:
        channel = self._next % num_channels
        self._next += 1
        return (channel,)

    def advance(self, count: int) -> int:
        """Reserve ``count`` consecutive round-robin slots in one call
        (batched routing) and return the cursor they start at, so a
        batch lands on exactly the channels its records would have
        reached one ``select`` at a time."""
        cursor = self._next
        self._next += count
        return cursor


class BroadcastPartitioner(Partitioner):
    """Every record to every downstream subtask."""

    name = "broadcast"

    def select(self, record: Record, num_channels: int,
               subtask_index: int) -> Sequence[int]:
        return tuple(range(num_channels))


class GlobalPartitioner(Partitioner):
    """Everything to the first subtask; used for total ordering / single sinks."""

    name = "global"

    def select(self, record: Record, num_channels: int,
               subtask_index: int) -> Sequence[int]:
        return (0,)
