"""API-surface snapshot: the public facade is frozen in
``tests/api_surface.txt``; accidental additions, removals or renames
fail here before any user sees them.

Refresh intentionally with::

    PYTHONPATH=src python tests/test_api_surface.py --refresh
"""

import inspect
import os
import re

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "api_surface.txt")

#: module path -> list of classes whose public methods are part of the
#: frozen surface (None freezes the module's public names only).
SURFACE = [
    "repro",
    "repro.api",
    "repro.api.environment:Environment",
    "repro.api.dataset:DataSet",
    "repro.api.dataset:GroupedDataSet",
    "repro.api.stream:DataStream",
    "repro.api.stream:KeyedStream",
    "repro.api.stream:WindowedStream",
    "repro.observability",
    "repro.runtime.engine:EngineConfig",
    "repro.runtime.engine:Engine",
    "repro.state.descriptors:MapState",
]


def _public_names(obj):
    names = getattr(obj, "__all__", None)
    if names is None:
        names = [name for name in dir(obj) if not name.startswith("_")]
    return sorted(names)


def _signature(fn):
    try:
        text = str(inspect.signature(fn))
    except (TypeError, ValueError):
        return "(...)"
    # Callable defaults repr with a memory address; snapshots must be
    # byte-stable across interpreter runs.
    return re.sub(r"<function .*? at 0x[0-9a-f]+>", "<callable>", text)


def _class_surface(cls):
    lines = ["  __init__%s" % _signature(cls.__init__)]
    for name in _public_names(cls):
        member = inspect.getattr_static(cls, name)
        if isinstance(member, property):
            lines.append("  %s [property]" % name)
        elif callable(member) or isinstance(member, (staticmethod,
                                                     classmethod)):
            lines.append("  %s%s" % (name, _signature(getattr(cls, name))))
        else:
            lines.append("  %s [attr]" % name)
    return lines


def render_surface():
    import importlib
    lines = []
    for entry in SURFACE:
        if ":" in entry:
            module_name, class_name = entry.split(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            lines.append("%s.%s:" % (module_name, class_name))
            lines.extend(_class_surface(cls))
        else:
            module = importlib.import_module(entry)
            lines.append("%s: %s" % (entry, " ".join(_public_names(module))))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def test_api_surface_matches_snapshot():
    with open(SNAPSHOT) as handle:
        frozen = handle.read()
    fresh = render_surface()
    assert fresh == frozen, (
        "public API surface drifted from tests/api_surface.txt.\n"
        "If the change is intentional, refresh the snapshot with:\n"
        "  PYTHONPATH=src python tests/test_api_surface.py --refresh\n")


if __name__ == "__main__":
    import sys
    if "--refresh" in sys.argv:
        with open(SNAPSHOT, "w") as handle:
            handle.write(render_surface())
        print("refreshed %s" % SNAPSHOT)
    else:
        print(render_surface())
