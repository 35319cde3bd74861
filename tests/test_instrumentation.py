"""The traced benchmark run (``perfbench/spans.py``) wraps phnet functions and
methods by module and name at run time.  Renaming or deleting one of them
breaks that run without failing any other test, so instrument this tree here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTRUMENT = ("import sys; sys.path[:0] = sys.argv[1:]; "
              "from spans import Tracer, instrument; instrument(Tracer())")


def test_benchmark_instrumentation_finds_every_wrapped_name():
    proc = subprocess.run(
        [sys.executable, "-c", INSTRUMENT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
