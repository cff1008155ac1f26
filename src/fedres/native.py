"""The C loops: _loops.c, built once and loaded with ctypes.

_loops.c holds the C form of four Python paths, with their bits and their
failures (see fedres.engine, fedres.erm and fedres.solver): fedres_rounds
runs engine.SgdSystem's rounds under the aligned rule at any batch size,
for any number of clients, delays and warm-ups, as the block path computes
them; fedres_erm runs erm.ErmSystem's rounds for one client at zero delay;
solve() is solver._solve_one; alternate() runs the alternations of
solver.alternating_joint_ls that its screen proves. The last three solve
through one solve_gram over scratch the caller owns. The rounds keep one
contract. A system builds its view once, with rounds() or exact(): a ctypes
structure over the system's own arrays, which carries its C function. The
rows are read in place, where readable() says the loops can; the
predictions, residuals, models and the channel's history are written in
place; the running sums and the scratch are arrays the view holds, so no
C function allocates. advance(view, done, n) runs rounds done + 1 ..
done + n in one call and returns a status with the round and client it names.

The products and solves go through the OpenBLAS entry points NumPy
itself calls - scipy_cblas_ddot64_ (np.vecdot and 1-D ndarray.dot),
scipy_cblas_dgemv64_ (np.matmul's (m, n) @ (n,)) and scipy_dgesv_64_
(solve1, called again at a doubled ridge where it finds a system singular,
as solver._ridge_solve does) - resolved here in the OpenBLAS of
numpy.libs, so their bits are NumPy's under whichever OpenBLAS kernel runs.

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
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_loops.c")
# plain IEEE double arithmetic: no contracted multiply-adds, no fast-math, no -march
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
BLAS = ("scipy_cblas_ddot64_", "scipy_cblas_dgemv64_", "scipy_dgesv_64_")
# the loops' statuses, in C and Python alike: which model's norm stopped being finite
# (an exact learner's loop always returns OK)
OK, LOCAL_NOT_FINITE, GLOBAL_NOT_FINITE = range(3)


class Rounds(ctypes.Structure):
    """_loops.c's Rounds: a P-client SGD run as fedres_rounds reads and writes it."""

    _fields_ = ([(name, ctypes.c_int64) for name in (
                    "rows", "clients", "batch", "dg", "dl", "reach",
                    "xg_row", "xg_client", "xg_batch", "xl_row", "xl_client", "xl_batch",
                    "y_row", "y_client", "y_batch")]
                + [(name, ctypes.c_void_p) for name in (
                    "xg", "xl", "y", "pred", "resid", "history", "wg", "wl",
                    "fetch", "alpha", "lag", "eta_local", "gp", "next", "g", "gsum", "zeros")]
                + [(name, ctypes.c_double) for name in ("eta_global", "radius")])


# Exact and Joint spell out _loops.c's Solver, which they hold by value: its
# scratch (lu, trial, pivots) ends their pointers, and its radius starts their doubles
class Exact(ctypes.Structure):
    """_loops.c's Exact: a one-client exact learner as fedres_erm reads and writes it."""

    _fields_ = ([(name, ctypes.c_int64) for name in (
                    "rows", "dg", "dl", "reach", "erm", "xg_row", "xl_row", "y_row")]
                + [(name, ctypes.c_void_p) for name in (
                    "xg", "xl", "y", "pred", "history", "wg", "wl",
                    "gram", "ly", "cross", "gram_g", "gy", "cross_g", "rhs", "product",
                    "lu", "trial", "pivots")]
                + [("radius", ctypes.c_double)])


# the fields of solver._DecreaseScreen that Joint copies, and bound, norm_g and norm_l back
SCREEN = ("pad", "y", "a", "b", "gamma_sum", "gamma_res", "gamma_dec", "floor", "bound",
          "norm_g", "norm_l")


class Joint(ctypes.Structure):
    """_loops.c's Joint: the regret comparator's fit as fedres_joint reads and writes it."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("clients", "dg", "dl", "limit")]
                + [(name, ctypes.c_void_p) for name in (
                    "gram_l", "ly", "cross", "gram_g", "gy", "wg", "wl", "wg0", "wl0",
                    "rhs_l", "rhs_g", "step_l", "term_l", "step_g", "term_g", "sum",
                    "lu", "trial", "pivots")]
                + [(name, ctypes.c_double) for name in ("radius", "tol", *SCREEN)])


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
    lib.fedres_bind.argtypes = [ctypes.c_void_p] * len(BLAS)
    lib.fedres_bind.restype = None
    lib.fedres_bind(*(ctypes.cast(getattr(blas, name), ctypes.c_void_p) for name in BLAS))
    int64 = ctypes.c_int64
    for loop, view in [(lib.fedres_rounds, Rounds), (lib.fedres_erm, Exact)]:
        loop.argtypes = [ctypes.POINTER(view), int64, int64, ctypes.POINTER(int64)]
        loop.restype = ctypes.c_int
    lib.fedres_solve.argtypes = [*[ctypes.c_void_p] * 3, ctypes.c_double, *[ctypes.c_void_p] * 2,
                                 int64, ctypes.c_void_p]
    lib.fedres_solve.restype = None
    lib.fedres_joint.argtypes = [ctypes.POINTER(Joint)]
    lib.fedres_joint.restype = int64
    lib.openblas = blas  # NumPy holds it too; the bound entry points live in it
    return lib, None


LOOPS, FALLBACK_REASON = _load()


def readable(xg: np.ndarray, xl: np.ndarray, y: np.ndarray) -> bool:
    """Whether the C loops are loaded and read the rows xg (N, P, b, dg), xl
    (N, P, b, dl) and labels y (N, P, b) in place (exact()'s without b):
    aligned float64 of one leading shape, at whole-element strides, with
    unit-stride features where a block has two or more."""
    return (LOOPS is not None and xg.shape[:-1] == xl.shape[:-1] == y.shape
            and xg.dtype == xl.dtype == y.dtype == np.float64
            and xg.flags.aligned and xl.flags.aligned and y.flags.aligned
            and not np.any(np.remainder(xg.strides + xl.strides + y.strides, 8))
            and (xg.shape[-1] < 2 or xg.strides[-1] == 8)
            and (xl.shape[-1] < 2 or xl.strides[-1] == 8))


def _view(struct, loop, ints, strides, arrays, doubles):
    """struct over ints, byte strides in elements, the arrays' addresses and
    doubles, which keeps the arrays alive and carries its C function, loop."""
    view = struct(*ints, *(np.array(strides) // 8).tolist(),
                  *map(attrgetter("ctypes.data"), arrays), *doubles)
    view.arrays, view.loop, view.failure = arrays, loop, (ctypes.c_int64 * 2)()
    return view


@lru_cache(maxsize=16)
def _scratch(d: int) -> tuple:
    """A solve's scratch for d features, lu (d, d), trial (d,) and pivots (d,),
    and their addresses, one set per d (like solver._ridge_diagonal): runs are single-threaded."""
    arrays = np.empty((d, d)), np.empty(d), np.empty(d, np.int64)
    return arrays, [a.ctypes.data for a in arrays]


def solve(ata: np.ndarray, atb: np.ndarray, radius: float) -> np.ndarray:
    """solver._solve_one for one (d, d) problem, d >= 1, in C (fedres_solve):
    the base-ridge solve, then the bisection, with the Python body's bits."""
    ata, atb = (np.ascontiguousarray(a, dtype=float) for a in (ata, atb))
    w = np.empty(len(atb))
    LOOPS.fedres_solve(*_scratch(len(w))[1], radius, ata.ctypes.data, atb.ctypes.data, len(w),
                       w.ctypes.data)
    return w


def alternate(blocks: tuple, screen, radius: float, tol: float, limit: int) -> tuple:
    """solver.alternating_joint_ls's alternations from zero models in C
    (fedres_joint), at most limit, while screen, its _DecreaseScreen, proves
    them, over the C-order blocks gram_l (P, dl, dl), ly (P, dl), cross
    (P, dg, dl), gram_g (dg, dg) and gy (P, dg): how many it proved, and the
    global and local models after them; screen moves on with them."""
    p, dg, dl = blocks[2].shape
    d = max(dg, dl)
    # wg, wl, then scratch: wg0, wl0, rhs_l, rhs_g, step_l, term_l, step_g, term_g, sum, and a
    # solve's lu, trial and int64 pivots, in one zeroed buffer whose address is read once
    n = p * dl
    starts = np.cumsum([0, dg, n, dg, n, n, dg, n, n, dg, dg, d, d * d, d])
    buffer = np.zeros(starts[-1] + d)
    view = Joint(p, dg, dl, limit, *map(attrgetter("ctypes.data"), blocks),
                 *(buffer.ctypes.data + 8 * starts).tolist(), radius, tol,
                 *attrgetter(*SCREEN)(screen))
    proved = LOOPS.fedres_joint(view)
    screen.bound, screen.norm_g, screen.norm_l = view.bound, view.norm_g, view.norm_l
    return proved, buffer[:dg], buffer[dg:dg + n].reshape(p, dl)


def rounds(xg: np.ndarray, xl: np.ndarray, y: np.ndarray, pred: np.ndarray,
           resid: np.ndarray, history: np.ndarray, wg: np.ndarray, wl: np.ndarray, *,
           fetch, alpha, lag, eta_local, eta_global: float, radius: float) -> Rounds | None:
    """A P-client SGD run as Rounds for advance(), at any batch size b: the
    rows xg (N, P, b, dg), xl (N, P, b, dl) and labels y (N, P, b), read in
    place; the predictions and residuals (N, P, b), the channel's history
    (reach + N + 1, dg) and the models wg (dg,) and wl (P, dl), written in
    place and C-contiguous; each client's fetch row offset, uplink delay,
    round trip (in batch rounds) and local step (an int or float for every
    client, or one each). None where readable() says no."""
    if not readable(xg, xl, y):
        return None
    rows, clients, batch = y.shape
    per_client = [np.array(np.broadcast_to(v, clients), dtype=kind) for v, kind in
                  [(fetch, np.int64), (alpha, np.int64), (lag, np.int64), (eta_local, float)]]
    return _view(Rounds, LOOPS.fedres_rounds,
                 [rows, clients, batch, xg.shape[-1], xl.shape[-1], len(history) - rows - 1],
                 xg.strides[:3] + xl.strides[:3] + y.strides,
                 [xg, xl, y, pred, resid, history, wg, wl, *per_client, np.empty((clients, batch)),
                  np.empty(wl.shape), np.empty(max(xg.shape[-1], xl.shape[-1])),
                  np.empty(xg.shape[-1]), np.zeros(batch)],
                 [eta_global, radius])


def exact(xg: np.ndarray, xl: np.ndarray, y: np.ndarray, pred: np.ndarray,
          history: np.ndarray, wg: np.ndarray, wl: np.ndarray, *, erm: bool,
          radius: float) -> Exact | None:
    """A one-client exact learner at zero delay as Exact for advance(), the
    erm variant when erm, else fictitious play, over arrays laid out as
    rounds() takes them at P = 1; its running sums (zeros) and the solves'
    scratch are new arrays the view holds. None where readable() says no or
    a feature block is empty."""
    if not readable(xg, xl, y) or min(xg.shape[-1], xl.shape[-1]) < 1:
        return None
    rows, dg, dl = len(y), xg.shape[-1], xl.shape[-1]
    d = max(dg, dl)
    sums = [np.zeros(shape) for shape in [(dl, dl), dl, (dl, dg), (dg, dg), dg, (dg, dl)]]
    return _view(Exact, LOOPS.fedres_erm, [rows, dg, dl, len(history) - rows - 1, erm],
                 [xg.strides[0], xl.strides[0], y.strides[0]],
                 [xg, xl, y, pred, history, wg, wl, *sums, np.empty(d), np.empty(d),
                  np.empty((d, d)), np.empty(d), np.empty(d, np.int64)],
                 [radius])


def advance(view: Rounds | Exact, done: int, n: int) -> tuple:
    """Rounds done + 1 .. done + n of view in one call of its C function:
    (status, round, client), the last round run and OK, or the round and
    client (-1: the global model) whose model failed."""
    return view.loop(view, done, n, view.failure), *view.failure
