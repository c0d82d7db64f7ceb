"""Two LAPACK eigenvalue routines that numpy's linalg does not call, and the
BLAS thread count, taken through ``ctypes`` from the OpenBLAS numpy links.

``tridiagonal_eigenvalues`` runs ``dsterf`` (Pal-Walker-Kahan QR, no
vectors) and ``eigvalsh`` runs ``zheevd_2stage`` (two-stage
tridiagonalization; Haidar, Ltaief & Dongarra, SC 2011) from
``TWO_STAGE_MIN`` rows up, where it beats numpy's one-stage routine.
``one_thread`` pins the dense stages to one BLAS thread, so their bits do
not depend on the host.  The binding loads on first use, and only when
numpy's build reports 64-bit LAPACK integers and exports these exact
symbols; otherwise both functions run numpy's ``eigvalsh``, which gives the
same eigenvalues to roundoff, and ``one_thread`` pins nothing.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

_SYMBOLS = ("scipy_LAPACKE_dsterf64_", "scipy_LAPACKE_zheevd_2stage64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
_COL_MAJOR = 102
# Fewest rows at which zheevd_2stage beats numpy's eigvalsh on one thread
# (equal at 384 rows, 15% faster at 512, 43% at 1444).
TWO_STAGE_MIN = 400

_routines: tuple | None = None  # the _SYMBOLS once bound, () for the fallback
_pin = threading.Lock()
_pinned = [0, 1]  # one_thread bodies running in any thread, and the count the first found


def _bind() -> tuple:
    """The four routines from numpy's OpenBLAS, or () when they cannot be bound safely."""
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):
        return ()
    # LAPACKE with 32-bit integers would read these int64 arguments wrongly
    if "USE64BITINT" not in str(config.get("openblas configuration", "")):
        return ()
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        # a handle on numpy's LAPACK module also resolves the library it links
        lib = ctypes.CDLL(_umath_linalg.__file__)
        sterf, heevd, get, set_ = (getattr(lib, name) for name in _SYMBOLS)
    except (OSError, AttributeError):
        return ()
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    sterf.argtypes = [i64, ptr, ptr]
    heevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
    sterf.restype = heevd.restype = i64
    set_.argtypes, set_.restype = [ctypes.c_int], None  # get takes none and returns an int
    return sterf, heevd, get, set_


def bound() -> bool:
    """Whether the binding loaded (it is tried once per process)."""
    global _routines
    if _routines is None:
        _routines = _bind()
    return bool(_routines)


@contextlib.contextmanager
def one_thread():
    """Run the body (or, as a decorator, each call) on one BLAS thread, then restore
    the caller's count, also when the body raises; without the binding, pin nothing.
    The count is the process's: overlapping bodies, in any threads, hold it at one
    (for every BLAS call meanwhile) until the last of them ends."""
    if not bound():
        yield
        return
    get, set_ = _routines[2:]
    with _pin:
        if not _pinned[0]:
            _pinned[1] = get()
            set_(1)
        _pinned[0] += 1
    try:
        yield
    finally:
        with _pin:
            _pinned[0] -= 1
            if not _pinned[0]:
                set_(_pinned[1])


def _two_stage(rows: int) -> bool:
    """The one solver choice: whether ``eigvalsh`` takes zheevd_2stage on ``rows`` rows."""
    return rows >= TWO_STAGE_MIN and bound()


def solvers(rows: int) -> dict:
    """The solvers a capacity pass runs on Grams of ``rows`` rows, for the manifest."""
    ok = bound()
    return {"lapack": "numpy's OpenBLAS through ctypes" if ok else "numpy fallback",
            "iid": "Wishart law, " + ("dsterf" if ok else "eigvalsh of the tridiagonal"),
            "gram": "zheevd_2stage" if _two_stage(rows) else "eigvalsh",
            "two_stage_min_rows": TWO_STAGE_MIN}


def _check(info: int, name: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info={info}")


def tridiagonal_eigenvalues(d, e) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with diagonal
    ``d`` and off-diagonal ``e``."""
    d = np.array(d, dtype=float)
    e = np.array(e, dtype=float)
    if not bound():
        return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    _check(_routines[0](d.size, d.ctypes.data, e.ctypes.data), "dsterf")
    return d


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix.  The two-stage
    routine works in place, so ``a`` holds no useful values afterwards."""
    n = a.shape[0]
    if not _two_stage(n):
        return np.linalg.eigvalsh(a)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    w = np.empty(n)
    # column-major LAPACK reads the C-ordered array as its transpose, the
    # conjugate of a Hermitian matrix: the same eigenvalues
    _check(_routines[1](_COL_MAJOR, b"N", b"L", n, a.ctypes.data, n, w.ctypes.data),
           "zheevd_2stage")
    return w
