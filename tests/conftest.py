"""Settings shared by every test of a pytest run.

One Hypothesis profile for every property test: examples are derived from
the test itself (``derandomize``), so each run draws the same ones; there is
no per-example deadline, because wall time on a loaded host says nothing
about correctness; and there is no example database.  ``max_examples``
bounds the time each property test adds to the suite.  Hypothesis still
caches the constants it reads from the source tree, so its home directory
is a temporary one, removed when the run ends: a test run leaves no
``.hypothesis/`` directory behind.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("phnet", derandomize=True, deadline=None, database=None,
                          max_examples=100)
settings.load_profile("phnet")

_home = []


def pytest_configure(config):
    _home.append(tempfile.mkdtemp(prefix="phnet-hypothesis-"))
    set_hypothesis_home_dir(_home[-1])


def pytest_unconfigure(config):
    shutil.rmtree(_home.pop(), ignore_errors=True)
