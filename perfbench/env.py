"""Process set-up shared by the benchmark's entry points: pin the BLAS
thread pools before NumPy loads, and put the checkout's ``src`` on the
import path.  Import this module before anything that imports NumPy.

BLAS runs on one thread.  The GEMMs of this network (one per kernel offset,
a few channels wide) gain little from a second thread: on a 2-vCPU machine
an ``infer`` volume took 3.8-4.4 s with one thread and 3.2-9.6 s with two,
at twice the CPU time, because two spinning threads wait for whichever vCPU
the host delays."""

import os
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS to ``BLAS_THREADS`` threads and make
    ``import phnet`` load the checkout's sources; exits with code 2 when the
    checkout holds no program."""
    if "numpy" in sys.modules:
        raise RuntimeError("env.prepare() must run before NumPy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "phnet" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'phnet'} is missing "
              f"(run from the root of a checkout)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def machine():
    """Facts about the machine and libraries to record with the results."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "ram_gb": round(ram / 1e9, 2),
    }
