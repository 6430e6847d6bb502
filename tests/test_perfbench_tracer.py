"""perfbench's span tracer patches the library from outside and puts it back.

``perfbench.tracing.Tracer.patch`` reads ``owner.__dict__[attr]`` for a
class, so every method it wraps (``multiply``, ``multiply_many``,
``_finish_call``, ...) must be defined on that class itself.  Moving one
into a base class makes ``install()`` raise ``KeyError``, which breaks
``perfbench/run.py --trace 1``; this test catches that without a traced
benchmark run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from repro.core import (  # noqa: E402
    ColumnShardedEngine,
    ShardedEngine,
    SpMSpVEngine,
)


def current(owner, attr):
    """What the tracer patched: a registry entry, a class's own attribute,
    or a module attribute."""
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_install_then_uninstall_restores_every_patched_attribute():
    tracer = tracing.install(keep_records=False)
    patched = list(tracer._restore)
    try:
        for owner, attr, _raw, replacement in patched:
            assert current(owner, attr) is replacement, attr
    finally:
        tracer.uninstall()
    for owner, attr, raw, _replacement in patched:
        assert current(owner, attr) is raw, attr
    # the engine entry points the layer accounting is built on
    wrapped = {(owner, attr) for owner, attr, _raw, _new in patched
               if isinstance(owner, type)}
    for cls in (SpMSpVEngine, ShardedEngine, ColumnShardedEngine):
        assert (cls, "multiply") in wrapped and (cls, "multiply_many") in wrapped
    for cls in (ShardedEngine, ColumnShardedEngine):
        assert (cls, "_finish_call") in wrapped
