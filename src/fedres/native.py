"""The rounds in C: _loops.c, built once and loaded with ctypes.

_loops.c holds two entry points, each the C form of a Python path with its
bits and its failures (see fedres.engine and fedres.erm):
- fedres_rounds runs engine.SgdSystem's rounds under the aligned rule at
  batch size 1, for any number of clients, delays and warm-ups, as the
  block path computes them. It reads the system's rows where they lie:
  rounds(...) takes the (N, P, d) feature rows and the (N, P) labels at any
  row and client strides that are whole elements, with unit-stride
  features, aligned float64; the predictions, residuals, models and the
  channel's history it writes in place are C-contiguous. One call runs any
  number of rounds and returns a status, with the round and client it names.
- fedres_erm runs ErmSystem._run_single, one client at zero delay, on the
  client's C-contiguous rows (columns(...)): the initial models in; the
  predictions, the final models, a status and the round out.
They make the products and solves through the OpenBLAS entry points NumPy
itself calls - scipy_cblas_ddot64_ (np.vecdot and 1-D ndarray.dot),
scipy_cblas_dgemv64_ and scipy_cblas_daxpy64_ (the (m, n).(n,) products)
and scipy_dgesv_64_ (solve1, called again at a doubled ridge where it finds
a system singular, as solver._ridge_solve does) - resolved here in the
OpenBLAS of numpy.libs, so their bits are NumPy's under whichever OpenBLAS
kernel runs.

Importing this module builds _loops.c with the system C compiler `cc` into
$XDG_CACHE_HOME/fedres (~/.cache/fedres by default), once per source, flags
and machine: the file name holds their hash, and the library is written
under a temporary name and moved into place with os.replace, so concurrent
imports never load half a file. Nothing builds inside a run. When there is
no compiler, the build fails, the cache cannot be written or NumPy's BLAS is
not scipy-openblas64, LOOPS is None, FALLBACK_REASON says why, and the
systems keep their Python paths, which stay the reference the tests compare
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
# the loops' statuses, in C and Python alike: which model's norm stopped being finite
# (an exact learner's loop returns OK), or that a C loop ran out of memory
OK, LOCAL_NOT_FINITE, GLOBAL_NOT_FINITE, NO_MEMORY = range(4)


class Columns(ctypes.Structure):
    """One client's C-contiguous rows as the C loops read them (_loops.c's
    Streams): round t reads xg + t dg, xl + t dl and y[t] and writes pred[t]."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("rows", "dg", "dl")]
                + [(name, ctypes.c_void_p) for name in ("xg", "xl", "y", "pred")])


class Rounds(ctypes.Structure):
    """A P-client SGD run as fedres_rounds reads and writes it (_loops.c's
    Rounds): row and client strides in elements, then the arrays, then the
    scalar steps and radius."""

    _fields_ = ([(name, ctypes.c_int64) for name in (
                    "rows", "clients", "dg", "dl", "reach",
                    "xg_row", "xg_client", "xl_row", "xl_client", "y_row", "y_client")]
                + [(name, ctypes.c_void_p) for name in (
                    "xg", "xl", "y", "pred", "resid", "history", "wg", "wl",
                    "fetch", "alpha", "lag", "eta_local")]
                + [(name, ctypes.c_double) for name in ("eta_global", "radius")])


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
    int64 = ctypes.c_int64
    lib.fedres_rounds.argtypes = [ctypes.POINTER(Rounds), int64, int64, ctypes.POINTER(int64)]
    lib.fedres_erm.argtypes = [ctypes.POINTER(Columns), ctypes.c_int, double, pointer, pointer,
                               ctypes.POINTER(int64)]
    lib.fedres_rounds.restype = lib.fedres_erm.restype = ctypes.c_int
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


def rounds(xg: np.ndarray, xl: np.ndarray, y: np.ndarray, pred: np.ndarray,
           resid: np.ndarray, history: np.ndarray, wg: np.ndarray, wl: np.ndarray, *,
           fetch, alpha, lag, eta_local, eta_global: float, radius: float) -> Rounds | None:
    """A P-client SGD run as Rounds for advance(): the rows xg (N, P, dg),
    xl (N, P, dl) and labels y (N, P), read in place; the predictions and
    residuals (N, P), the channel's history (reach + N + 1, dg) and the models
    wg (dg,) and wl (P, dl), written in place and C-contiguous; each client's
    fetch row offset, uplink delay, round trip and local step (an int or
    float for every client, or one each). None when the C loops are not
    loaded or do not take the rows: anything but aligned float64 at whole
    element strides, with unit-stride features where they have two or more."""
    if LOOPS is None:
        return None
    if not (xg.dtype == xl.dtype == y.dtype == np.float64
            and xg.flags.aligned and xl.flags.aligned and y.flags.aligned):
        return None
    if (np.any(np.remainder(xg.strides + xl.strides + y.strides, 8))
            or xg.shape[-1] > 1 and xg.strides[-1] != 8
            or xl.shape[-1] > 1 and xl.strides[-1] != 8):
        return None
    rows, clients = y.shape
    per_client = [np.array(np.broadcast_to(v, clients), dtype=kind) for v, kind in
                  [(fetch, np.int64), (alpha, np.int64), (lag, np.int64), (eta_local, float)]]
    arrays = [xg, xl, y, pred, resid, history, wg, wl, *per_client]
    run = Rounds(rows, clients, xg.shape[-1], xl.shape[-1], len(history) - rows - 1,
                 *[s // 8 for s in (*xg.strides[:2], *xl.strides[:2], *y.strides)],
                 *[a.ctypes.data for a in arrays], eta_global, radius)
    run.arrays, run.failure = arrays, (ctypes.c_int64 * 2)()  # alive as long as run is
    return run


def advance(run: Rounds, done: int, n: int) -> tuple:
    """Rounds done + 1 .. done + n of run in C: (status, round, client), the
    last round run and OK, or the round and client (-1: the global model)
    whose model failed."""
    status = LOOPS.fedres_rounds(run, done, n, run.failure)
    if status == NO_MEMORY:
        raise MemoryError("the C round could not allocate its scratch")
    return status, *run.failure


def erm(cols: Columns, reapply: bool, radius: float, wg: np.ndarray, wl: np.ndarray) -> tuple:
    """ErmSystem._run_single in C (the erm variant when reapply, else
    fictitious) over cols from copies of the models wg and wl: returns (final
    wg, final wl, status, round) as that loop does."""
    wg, wl, t = np.array(wg, dtype=float), np.array(wl, dtype=float), ctypes.c_int64()
    status = LOOPS.fedres_erm(cols, int(reapply), radius, wg.ctypes.data, wl.ctypes.data, t)
    if status == NO_MEMORY:
        raise MemoryError("the single-client loop could not allocate its sums")
    return wg, wl, status, t.value
