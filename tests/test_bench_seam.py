"""The benchmark's tracer must find and restore every attribute it patches.

``perfbench/tracing.py`` wraps named module and class attributes of the
package.  Renaming or dropping one of them breaks the traced benchmark run;
this test makes that a tier-1 failure instead.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_and_restores_every_attribute():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises if a traced attribute is missing
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
