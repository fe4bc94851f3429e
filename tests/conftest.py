import os

# One BLAS thread, set before numpy loads: the suite's matrices are small, and
# a second thread spinning against a core another process holds slows the
# per-column reference loops many times over.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib.util  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from attokit.instances import random_blaschke, random_unimodular, random_vector  # noqa: E402


def blas_threads():
    """The thread count numpy's BLAS reports, or None when it reports none:
    read by the benchmark's own probe, ``environment`` in ``bench/run.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", Path(__file__).resolve().parent.parent / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    return bench_run.environment(0)["blas_threads"]


def pytest_report_header(config):
    return f"BLAS threads: {blas_threads()} (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def random_product():
    def make(rng, degree, **kw):
        return random_blaschke(rng, degree, **kw)
    return make
