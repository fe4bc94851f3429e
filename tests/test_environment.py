import os

import pytest

from conftest import blas_threads


def test_suite_runs_on_one_blas_thread():
    if os.environ["OPENBLAS_NUM_THREADS"] != "1":
        pytest.skip("OPENBLAS_NUM_THREADS was set to another count")
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS reports no thread count")
    assert threads == 1
