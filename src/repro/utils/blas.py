"""Exact integer products through BLAS, and the BLAS thread count of a process.

numpy evaluates integer ``@`` with its own loops, never BLAS, so an
``n x n`` int64 product at ``n = 1024`` takes seconds where a float GEMM
takes milliseconds.  A float32 GEMM of integer matrices is *exact*
whenever every partial sum is an integer below ``2^24``;
:func:`exact_int_matmul` bounds the partial sums from the operands and
takes the float32 path when that holds.

:func:`limit_blas_threads` pins the loaded OpenBLAS to a fixed thread count.
The forked runtime peers call it on entry: three processes each running a
full-width BLAS pool on a small host oversubscribe the cores and make
release times bimodal (see ``docs/performance.md``).
"""

from __future__ import annotations

import ctypes
import os
from typing import List

import numpy as np

#: float32 represents every integer of magnitude below ``2^24`` exactly.
FLOAT32_EXACT = 1 << 24


def _max_abs(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min())) if x.size else 0


def exact_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of integer matrices as int64, through a float32 GEMM when exact.

    Every partial sum of an output entry is at most
    ``k * max|a| * max|b|`` in magnitude (``k`` the inner dimension).  Below
    ``2^24`` the product runs as a float32 GEMM, which then rounds nothing
    whatever the summation order; otherwise as int64 ``@``.  0/1 adjacency
    rows take the float32 path for every ``n < 2^24``.

    Examples
    --------
    >>> exact_int_matmul(np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]])).tolist()
    [[2, 1], [1, 1]]
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] * _max_abs(a) * _max_abs(b) >= FLOAT32_EXACT:
        return a.astype(np.int64) @ b.astype(np.int64)
    return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.int64)


# ---------------------------------------------------------------------- #
# BLAS thread count
# ---------------------------------------------------------------------- #
#: Thread setters exported by OpenBLAS builds: plain, ILP64-suffixed, and
#: the prefixed copy numpy wheels bundle (``scipy_openblas64_``).
_SETTER_NAMES = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_libraries() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            candidates = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return []
    return sorted(path for path in candidates if os.path.isfile(path))


def limit_blas_threads(threads: int = 1) -> bool:
    """Best effort: set every loaded OpenBLAS's thread count to *threads*.

    Looks up an ``*openblas_set_num_threads*`` symbol in each OpenBLAS the
    process has loaded (numpy and scipy may bundle one each) and calls it.
    Returns ``True`` when at least one setter was called and ``False``
    (changing nothing) when none was found.  Calling it again is harmless.
    Thread counts never change a product's value here: every BLAS product
    in this package is exact.
    """
    found = False
    for path in _openblas_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next(
            (getattr(library, name) for name in _SETTER_NAMES if hasattr(library, name)), None
        )
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(int(threads))
            found = True
    return found
