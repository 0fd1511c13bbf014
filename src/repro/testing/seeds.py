"""One root seed, many independent deterministic RNG streams.

Every randomized artefact in the repository -- fuzz cases, property-test
inputs, benchmark workloads -- should derive its :class:`random.Random`
through :func:`rng_for` so that

* a single root seed (``--seed`` on the fuzz CLI, or the ``REPRO_SEED``
  environment variable elsewhere) pins the *entire* run,
* two call sites never share an RNG stream by accident (streams are
  keyed by an explicit path of names), and
* the derivation is bit-reproducible across machines and Python builds:
  it hashes UTF-8 text with SHA-256, never ``hash()`` (which is salted
  by ``PYTHONHASHSEED``) and never object identity.

A failing fuzz case is therefore fully identified by its *seed line*
``seed=<root> oracle=<name> case=<index>``; replaying it needs no stored
corpus, only the code.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Union

#: Environment variable consulted by :func:`root_seed`.
SEED_ENV_VAR = "REPRO_SEED"

DEFAULT_ROOT_SEED = 0


def root_seed(default: int = DEFAULT_ROOT_SEED) -> int:
    """The process-wide root seed: ``REPRO_SEED`` if set, else ``default``."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r" % (SEED_ENV_VAR, raw))


def derive_seed(root: int, *path: Union[str, int]) -> int:
    """A 63-bit seed deterministically derived from ``root`` and a path.

    Distinct paths give (cryptographically) independent seeds; the same
    path always gives the same seed, on every machine.
    """
    hasher = hashlib.sha256()
    hasher.update(("root:%d" % root).encode("utf-8"))
    for part in path:
        if not isinstance(part, (str, int)):
            raise TypeError(
                "seed path parts must be str or int, got %r" % (part,))
        hasher.update(("/%s:%s" % (type(part).__name__, part)).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") >> 1


def rng_for(root: int, *path: Union[str, int]) -> random.Random:
    """A fresh :class:`random.Random` for the stream named by ``path``."""
    return random.Random(derive_seed(root, *path))
