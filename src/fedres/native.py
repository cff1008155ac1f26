"""The single-client loops in C: _loops.c, built once and loaded with ctypes.

engine.SgdSystem and erm.ErmSystem run one client at zero delay with batch
size 1 in a loop of their own (see fedres.engine). _loops.c holds those
loops with every round in C, under the Python loops' contract: the
client's C-contiguous rows and the initial models in; the predictions, the
final models, a status and the round it names out. It makes the products
and solves through the OpenBLAS entry points NumPy itself calls -
scipy_cblas_ddot64_ (1-D ndarray.dot), scipy_cblas_dgemv64_ and
scipy_cblas_daxpy64_ (the (m, n).(n,) products) and scipy_dgesv_64_
(solve1, called again at a doubled ridge where it finds a system singular,
as solver._ridge_solve does) - resolved here in the OpenBLAS of
numpy.libs, so its bits are NumPy's under whichever OpenBLAS kernel runs.

Importing this module builds _loops.c with the system C compiler `cc` into
$XDG_CACHE_HOME/fedres (~/.cache/fedres by default), once per source, flags
and machine: the file name holds their hash, and the library is written
under a temporary name and moved into place with os.replace, so concurrent
imports never load half a file. Nothing builds inside a run. When there is
no compiler, the build fails, the cache cannot be written or NumPy's BLAS is
not scipy-openblas64, LOOPS is None, FALLBACK_REASON says why, and the
systems keep their Python loops, which stay the reference the tests compare
the C loops against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_loops.c")
# plain IEEE double arithmetic: no contracted multiply-adds, no fast-math, no -march
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
BLAS = ("scipy_cblas_ddot64_", "scipy_cblas_dgemv64_", "scipy_cblas_daxpy64_",
        "scipy_dgesv_64_")
# the single-client loops' statuses, in C and Python alike: which model's norm stopped
# being finite (an exact learner's loop returns OK), or that the C loop ran out of memory
OK, LOCAL_NOT_FINITE, GLOBAL_NOT_FINITE, NO_MEMORY = range(4)


class Columns(ctypes.Structure):
    """One client's C-contiguous rows as the C loops read them (_loops.c's
    Streams): round t reads xg + t dg, xl + t dl and y[t] and writes pred[t]."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("rows", "dg", "dl")]
                + [(name, ctypes.c_void_p) for name in ("xg", "xl", "y", "pred")])


def _openblas():
    """NumPy's OpenBLAS in numpy.libs when it exports every BLAS entry point, else None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if all(hasattr(lib, name) for name in BLAS):
            return lib
    return None


def _build(target: Path) -> str | None:
    """Compile SOURCE into target; None, or why it could not."""
    import subprocess  # here: only a cold cache needs it, and it costs every process memory

    cc = shutil.which("cc")
    if cc is None:
        return "no C compiler: cc is not on PATH"
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode:
            return f"{cc} failed: {proc.stderr.strip()[-500:]}"
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return None


def _load():
    """(the loaded library, None), or (None, why the Python loops run)."""
    blas = _openblas()
    if blas is None:
        return None, f"NumPy's BLAS has no {', '.join(BLAS)} in numpy.libs"
    key = hashlib.sha256(b"\0".join([SOURCE.read_bytes(), " ".join(FLAGS).encode(),
                                     platform.machine().encode(), sys.platform.encode()]))
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fedres"
    path = cache / f"loops-{key.hexdigest()[:16]}.so"
    if not path.exists():
        try:
            reason = _build(path)
        except OSError as exc:
            reason = f"cannot build into {cache}: {exc}"
        if reason:
            return None, reason
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        return None, f"cannot load {path}: {exc}"
    lib.fedres_bind.argtypes = [ctypes.c_void_p] * 4
    lib.fedres_bind.restype = None
    lib.fedres_bind(*(ctypes.cast(getattr(blas, name), ctypes.c_void_p) for name in BLAS))
    pointer, double = ctypes.c_void_p, ctypes.c_double
    round_ = ctypes.POINTER(ctypes.c_int64)
    lib.fedres_sgd.argtypes = [ctypes.POINTER(Columns), double, double, double, pointer,
                               pointer, round_]
    lib.fedres_erm.argtypes = [ctypes.POINTER(Columns), ctypes.c_int, double, pointer, pointer,
                               round_]
    lib.fedres_sgd.restype = lib.fedres_erm.restype = ctypes.c_int
    lib.openblas = blas  # NumPy holds it too; the bound entry points live in it
    return lib, None


LOOPS, FALLBACK_REASON = _load()


def columns(xg: np.ndarray, xl: np.ndarray, y: np.ndarray, pred: np.ndarray) -> Columns | None:
    """The rows xg (N, dg), xl (N, dl), labels y (N,) and predictions pred (N,)
    as Columns, read and written in place; None when the C loops are not
    loaded or do not take these arrays: anything but C-contiguous float64
    (build_streams' rows are), an empty feature block, or unequal row counts."""
    arrays = xg, xl, y, pred
    if LOOPS is None or min(xg.shape[1], xl.shape[1]) < 1:
        return None
    if not len(xg) == len(xl) == len(y) == len(pred):
        return None
    if any(a.dtype != np.float64 or not a.flags.c_contiguous for a in arrays):
        return None
    return Columns(len(y), xg.shape[1], xl.shape[1], *(a.ctypes.data for a in arrays))


def _finish(status: int, wg: np.ndarray, wl: np.ndarray, t: ctypes.c_int64) -> tuple:
    if status == NO_MEMORY:
        raise MemoryError("the single-client loop could not allocate its sums")
    return wg, wl, status, t.value


def sgd(cols: Columns, eta_g: float, eta_l: float, radius: float, wg: np.ndarray,
        wl: np.ndarray) -> tuple:
    """SgdSystem._run_single in C over cols from copies of the models wg and
    wl: returns (final wg, final wl, status, round) as that loop does."""
    wg, wl, t = np.array(wg, dtype=float), np.array(wl, dtype=float), ctypes.c_int64()
    status = LOOPS.fedres_sgd(cols, eta_g, eta_l, radius, wg.ctypes.data, wl.ctypes.data, t)
    return _finish(status, wg, wl, t)


def erm(cols: Columns, reapply: bool, radius: float, wg: np.ndarray, wl: np.ndarray) -> tuple:
    """ErmSystem._run_single in C (the erm variant when reapply, else
    fictitious) over cols from copies of the models wg and wl: returns (final
    wg, final wl, status, round) as that loop does."""
    wg, wl, t = np.array(wg, dtype=float), np.array(wl, dtype=float), ctypes.c_int64()
    status = LOOPS.fedres_erm(cols, int(reapply), radius, wg.ctypes.data, wl.ctypes.data, t)
    return _finish(status, wg, wl, t)
