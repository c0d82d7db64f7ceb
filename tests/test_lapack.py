import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from holomimo import _lapack
from holomimo.cli import ExperimentConfig, run_experiment

SIZES = [1, 2, 7, 256, 900]
# numpy's own routines, bound before any test patches the symbol names
_NUMPYS = _lapack._bind()


def _tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(n) + 3.0, rng.standard_normal(n - 1)
    return d, e, np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _hermitian(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x.conj().T @ x


@pytest.fixture
def fallback(monkeypatch):
    """numpy's LAPACK as if it exported none of the bound symbols."""
    monkeypatch.setattr(_lapack, "_SYMBOLS", ("no_dsterf64_", "no_zheevd_2stage64_",
                                              "no_get_num_threads64_", "no_set_num_threads64_"))
    monkeypatch.setattr(_lapack, "_routines", None)
    assert not _lapack.bound()


@pytest.mark.parametrize("n", SIZES)
def test_dsterf_matches_eigvalsh(n):
    d, e, t = _tridiagonal(n, n)
    ref = np.linalg.eigvalsh(t)
    lam = _lapack.tridiagonal_eigenvalues(d, e)
    assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(t, np.diag(d) + np.diag(e, 1) + np.diag(e, -1))  # inputs kept


@pytest.mark.parametrize("n", SIZES)
def test_two_stage_solver_matches_eigvalsh(n, monkeypatch):
    # every size takes zheevd_2stage here, below its threshold too
    monkeypatch.setattr(_lapack, "TWO_STAGE_MIN", 1)
    a = _hermitian(n, n)
    ref = np.linalg.eigvalsh(a)
    lam = _lapack.eigvalsh(a.copy())
    assert np.abs(lam - ref).max() <= 1e-12 * ref[-1]


def test_small_grams_keep_numpys_bytes():
    a = _hermitian(_lapack.TWO_STAGE_MIN - 1, 5)
    assert np.array_equal(_lapack.eigvalsh(a.copy()), np.linalg.eigvalsh(a))


def test_binding_needs_64_bit_integers(monkeypatch):
    monkeypatch.setattr(_lapack, "_routines", None)
    monkeypatch.setattr(np, "show_config", lambda mode: {"Build Dependencies": {"lapack": {
        "openblas configuration": "OpenBLAS 0.3.31 DYNAMIC_ARCH Haswell"}}})
    assert not _lapack.bound()


def test_fallback_gives_numpys_results(fallback):
    n = 900
    a = _hermitian(n, 1)
    assert np.array_equal(_lapack.eigvalsh(a.copy()), np.linalg.eigvalsh(a))
    d, e, t = _tridiagonal(n, 2)
    assert np.array_equal(_lapack.tridiagonal_eigenvalues(d, e), np.linalg.eigvalsh(t))


def test_a_failed_solve_raises(monkeypatch):
    if not _lapack.bound():
        pytest.skip("numpy's LAPACK is not bound here")
    monkeypatch.setattr(_lapack, "TWO_STAGE_MIN", 1)
    with pytest.raises(np.linalg.LinAlgError, match="zheevd_2stage failed with info="):
        _lapack.eigvalsh(np.full((3, 3), np.nan, dtype=complex))


def test_eigvalsh_and_the_manifest_read_one_predicate(monkeypatch):
    # whichever way the predicate answers, eigvalsh runs the solver that
    # solvers() names for the manifest
    rows = _lapack.TWO_STAGE_MIN
    assert not _lapack._two_stage(rows - 1)
    assert _lapack._two_stage(rows) == _lapack.bound()
    a = _hermitian(8, 3)
    numpy_eigvalsh = np.linalg.eigvalsh
    for choice in (False, True) if _lapack.bound() else (False,):
        calls = []
        monkeypatch.setattr(_lapack, "_two_stage", lambda n: choice)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or numpy_eigvalsh(m))
        _lapack.eigvalsh(a.copy())
        assert bool(calls) == (_lapack.solvers(8)["gram"] == "eigvalsh")
        monkeypatch.undo()


def _variables():
    return tuple(os.environ.get(k) for k in _lapack.THREAD_VARIABLES)


def test_one_thread_restores_the_callers_count(monkeypatch):
    # the count and the thread variables, one of them unset, come back
    if not _lapack.bound():
        pytest.skip("numpy's OpenBLAS is not bound here")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    get, set_ = _lapack._routines[2:]

    def state():
        return get(), _variables()

    pinned, caller = (1, ("1", "1", "1")), (2, ("2", "2", None))
    saved = get()
    try:
        set_(2)
        assert state() == caller
        with _lapack.one_thread():
            assert state() == pinned
        assert state() == caller
        with pytest.raises(RuntimeError, match="body"), _lapack.one_thread():
            assert state() == pinned
            raise RuntimeError("body")
        assert state() == caller
        # as a decorator, it pins each call
        decorated = _lapack.one_thread()(state)
        assert (decorated(), decorated(), state()) == (pinned, pinned, caller)
        # bodies that overlap (as in two threads) keep one thread until the
        # last ends, which restores what the first found
        first, second = _lapack.one_thread(), _lapack.one_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert state() == pinned
        second.__exit__(None, None, None)
        assert state() == caller
    finally:
        set_(saved)


def test_fallback_pins_only_the_variables(fallback, monkeypatch, tmp_path):
    # the count, read through numpy's own routines, stays the caller's, and
    # the manifest says the dense stages ran unpinned; a worker started in
    # the body still reads one thread from every variable, whatever its BLAS,
    # and the caller's variables come back
    if _NUMPYS:
        get, set_ = _NUMPYS[2:]
        saved = get()
        try:
            set_(2)
            with _lapack.one_thread():
                assert get() == 2
        finally:
            set_(saved)
    cfg = ExperimentConfig(kind="eigenvalues", tx={"nx": 3, "ny": 3, "dx": 0.5}, rho=[0.1])
    assert run_experiment(cfg, "fallback", tmp_path)["blas_threads"] == "unpinned"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    caller = _variables()
    with _lapack.one_thread(), ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        assert [pool.submit(os.getenv, k).result() for k in _lapack.THREAD_VARIABLES] == ["1"] * 3
    assert _variables() == caller
