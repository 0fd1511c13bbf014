"""The names the repo's benchmark tracer pins in ``src/``.

``benchmarks/e14/trace.py`` wraps public methods and module functions
of the engine from outside (``_patches``); a refactor that renames or
drops one of them breaks the traced rounds of the benchmark, which
only perf-smoke runs.  This test resolves every pin in tier-1, so the
failure is a ``KeyError`` naming the missing attribute, here.
"""

import importlib.util
import os

from repro.runtime import multiprocess

TRACE_PY = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "e14", "trace.py")


def load_trace():
    # By path and under another name: the file shadows stdlib ``trace``.
    spec = importlib.util.spec_from_file_location("e14_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_name_resolves():
    patches = load_trace()._patches(())
    for owner, attr, _ in patches:
        assert owner.__dict__[attr] is not None  # what install() reads
    # The codec functions are pinned only while the exchange imports
    # them (``hasattr``): dropping the import would silently untrace
    # encode/decode instead of failing.
    through_exchange = {attr for owner, attr, _ in patches
                        if owner is multiprocess}
    assert {"batch_to_columnar", "encode_columnar",
            "decode_columnar"} <= through_exchange
    assert len(patches) == 88, (
        "benchmarks/e14/trace.py pins %d names, not 88; if a benchmark "
        "PR changed the tracer, update this count and the list in "
        "docs/performance.md" % len(patches))
