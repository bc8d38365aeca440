"""The names the benchmark's layer tracer wraps must exist in nsdq.

``perfbench/layertrace.py`` times layers by replacing nsdq functions by
name from outside the library.  Deleting or renaming one of them breaks
``perfbench/run.py``; this test makes that a tier-1 failure.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from layertrace import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer()
    tracer.install()
    tracer.restore()
