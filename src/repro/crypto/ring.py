"""Arithmetic in the ring ``Z_{2^l}``.

Additive secret sharing in CARGO represents every value as an ``l``-bit
integer and performs all arithmetic modulo ``2^l`` (Section II-C).  The
:class:`Ring` class centralises that arithmetic for Python integers and for
numpy arrays, and provides the signed decoding used to map ring elements back
to (possibly negative) integers such as noise values or centred shares.

Implementation note: vectorised operations use ``numpy.uint64`` with ``l = 64``
by default, where modular wrap-around is native; other widths mask explicitly.
Large matrix products run as six float64 BLAS GEMMs over 22-bit limbs
(:func:`limb_matmul_applies`), which is exact and an order of magnitude
faster than numpy's BLAS-less integer ``@``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError, ProtocolError
from repro.utils.rng import RandomState, derive_rng

IntOrArray = Union[int, np.ndarray]

#: Width of the limbs :meth:`Ring.matmul` splits large operands into: a
#: 64-bit element is three limbs (22 + 22 + 20 bits).
LIMB_BITS = 22
#: Inner-dimension chunk of one limb GEMM.  Each entry is a sum of at most
#: ``LIMB_INNER_CHUNK`` products below ``2^44``, so it stays below ``2^53``
#: and float64 holds it exactly; chunk results are summed in uint64.
LIMB_INNER_CHUNK = 512
#: Smallest operand dimension at which the limb product beats int64 ``@``.
#: Best-of-20-to-40 times of one ``n x n @ n x n`` uint64 product on an
#: idle 2-vCPU Intel Xeon (AVX-512; OpenBLAS 0.3.31, numpy 2.4):
#:
#: ======  ===========  ======================  =====================
#: n       int64 ``@``  limbs, 2 BLAS threads   limbs, 1 BLAS thread
#: ======  ===========  ======================  =====================
#: 64      0.096 ms     0.094 ms                0.095 ms
#: 96      0.36 ms      0.21 ms                 0.21 ms
#: 104     0.41 ms      0.43 ms                 0.30 ms
#: 128     1.64 ms      0.64 ms                 0.66 ms
#: 256     13.0 ms      3.0 ms                  3.9 ms
#: 512     223 ms       20 ms                   26 ms
#: 768     0.52 s       0.063 s                 0.086 s
#: 1024    3.77 s       0.13 s                  0.19 s
#: ======  ===========  ======================  =====================
#:
#: The limbs win at 96 but lose at 104-108 under 2 BLAS threads, so the
#: crossover stays at 128.
LIMB_MATMUL_CROSSOVER = 128
#: Row/column strip width of the limb product; with the inner chunk it
#: bounds the float64 temporaries to ``4 * LIMB_STRIP * LIMB_INNER_CHUNK``
#: elements (three limbs of a ``b`` block, one limb of an ``a`` block).
LIMB_STRIP = 256


def limb_matmul_applies(a_shape, b_shape) -> bool:
    """Whether :meth:`Ring.matmul` of these operand shapes uses the limb GEMMs.

    Only 2-D products whose smallest dimension reaches
    :data:`LIMB_MATMUL_CROSSOVER`; everything else, batched products
    included, runs as int64 ``@``.  The limb path is exact for every inner
    dimension.

    Examples
    --------
    >>> limb_matmul_applies((1024, 1024), (1024, 1024))
    True
    >>> limb_matmul_applies((64, 1024), (1024, 1024))
    False
    """
    if len(a_shape) != 2 or len(b_shape) != 2:
        return False
    rows, inner = a_shape
    return min(rows, inner, b_shape[1]) >= LIMB_MATMUL_CROSSOVER


def _limb(x: np.ndarray, index: int) -> np.ndarray:
    """Limb *index* (22 bits, least significant first) of uint64 *x* as float64."""
    low = np.uint64((1 << LIMB_BITS) - 1)
    return ((x >> np.uint64(LIMB_BITS * index)) & low).astype(np.float64)


@lru_cache(maxsize=16)
def _triu_mask(rows: int, cols: int, k: int) -> np.ndarray:
    """Read-only ``np.triu`` of a ``rows x cols`` all-true mask (memoised)."""
    mask = np.triu(np.ones((rows, cols), dtype=bool), k=k)
    mask.setflags(write=False)
    return mask


def keep_strict_upper(x: np.ndarray) -> np.ndarray:
    """Zero every entry of *x* on or below the diagonal, in place; return *x*.

    Bitwise ``x * mask`` for the public 0/1 strict-upper mask (``row < col``)
    of the last two axes, without an operand-sized mask: rows are cleared
    in :data:`LIMB_STRIP`-high strips, and a strip only touches the columns
    up to its last row.
    """
    rows = x.shape[-2]
    for r0 in range(0, rows, LIMB_STRIP):
        strip = x[..., r0:r0 + LIMB_STRIP, :r0 + LIMB_STRIP]
        strip *= _triu_mask(*strip.shape[-2:], r0 + 1)
    return x


def pack_strict_upper(x: np.ndarray) -> np.ndarray:
    """The ``N = n(n-1)/2`` entries of square *x* above the diagonal, row-major.

    Examples
    --------
    >>> pack_strict_upper(np.arange(9, dtype=np.uint64).reshape(3, 3))
    array([1, 2, 5], dtype=uint64)
    """
    return x[_triu_mask(x.shape[0], x.shape[0], 1)]


def unpack_strict_upper(packed: np.ndarray, n: int) -> np.ndarray:
    """The ``n x n`` uint64 matrix whose strict upper triangle is *packed*.

    Inverse of :func:`pack_strict_upper`; every other entry is zero.
    """
    out = np.zeros((n, n), dtype=np.uint64)
    out[_triu_mask(n, n, 1)] = packed
    return out


def _limb_matmul(
    a: np.ndarray, b: np.ndarray, num_limbs: int, lower_upper: bool = False
) -> np.ndarray:
    """``a @ b mod 2^(22 * num_limbs)`` of uint64 matrices via float64 GEMMs.

    With ``a = sum_i a_i 2^(22i)`` and ``b = sum_j b_j 2^(22j)`` in 22-bit
    limbs, ``a @ b = sum_{i,j} (a_i @ b_j) 2^(22(i+j))``; pairs with
    ``i + j >= num_limbs`` vanish modulo the ring, leaving six GEMMs for
    three limbs.  The inner dimension is cut into
    :data:`LIMB_INNER_CHUNK`-wide chunks, within which each ``a_i @ b_j`` is
    an exact float64 GEMM; the shifted terms of every chunk are summed in
    uint64, whose wrap-around is reduction modulo ``2^64``.  A column strip
    of *b* keeps all its limbs; a row strip of *a* is split one limb at a
    time.

    With *lower_upper* (*a* zero above its diagonal, *b* zero below its
    own) only output blocks that reach above the diagonal are computed, and
    block ``(r, c)`` only runs the inner indices below ``min(r_end, c_end)``
    — the rest of each sum is zero.  The rest of the output stays zero, and
    the caller clears the diagonal blocks.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.uint64)
    for c0 in range(0, cols, LIMB_STRIP):
        c_end = min(c0 + LIMB_STRIP, cols)
        # A row strip starting at or below the strip's last column lies
        # wholly on or below the diagonal.
        row_end = min(rows, c_end - 1) if lower_upper else rows
        inner_end = min(inner, c_end) if lower_upper else inner
        for k0 in range(0, inner_end, LIMB_INNER_CHUNK):
            b_block = b[k0:min(k0 + LIMB_INNER_CHUNK, inner_end), c0:c_end]
            b_limbs = [_limb(b_block, j) for j in range(num_limbs)]
            for r0 in range(0, row_end, LIMB_STRIP):
                r_end = min(r0 + LIMB_STRIP, rows)
                k_end = k0 + b_block.shape[0]
                if lower_upper:
                    # a is lower-triangular: this row strip is zero from
                    # column r_end on.
                    k_end = min(k_end, r_end)
                    if k_end <= k0:
                        continue
                a_block = a[r0:r_end, k0:k_end]
                block = out[r0:r_end, c0:c_end]
                for i in range(num_limbs):
                    a_limb = _limb(a_block, i)
                    for j in range(num_limbs - i):
                        term = (a_limb @ b_limbs[j][:k_end - k0]).astype(np.uint64)
                        term <<= np.uint64(LIMB_BITS * (i + j))
                        block += term
    return out


def _check_lower_upper(a: np.ndarray, b: np.ndarray) -> None:
    """Raise unless *a* is zero above its diagonal and *b* below its own.

    Scans each :data:`LIMB_STRIP`-high row strip of *a* right of its
    diagonal block (and each column strip of *b* below it) in place; only
    the diagonal blocks' off-triangle entries are gathered.
    """
    for name, x in (("left", a), ("right", b.T)):
        for r0 in range(0, x.shape[0], LIMB_STRIP):
            r_end = r0 + LIMB_STRIP
            diagonal = x[r0:r_end, r0:r_end]
            above = diagonal[_triu_mask(*diagonal.shape, 1)]
            if np.any(x[r0:r_end, r_end:]) or np.any(above):
                side = "above" if name == "left" else "below"
                raise ProtocolError(
                    f"the {name} operand of a lower x upper product has a "
                    f"nonzero entry {side} its diagonal"
                )


@dataclass(frozen=True)
class Ring:
    """The ring ``Z_{2^bits}`` with helpers for encode/decode and sampling.

    Parameters
    ----------
    bits:
        Bit width ``l`` of ring elements.  Must be between 2 and 64.  CARGO's
        default of 64 bits leaves ample headroom: the largest value that the
        protocol aggregates is the triangle count plus noise, far below
        ``2^63``.
    """

    bits: int = 64

    def __post_init__(self) -> None:
        if not (2 <= self.bits <= 64):
            raise ConfigurationError(f"ring bit width must be in [2, 64], got {self.bits}")

    # ------------------------------------------------------------------ #
    # Basic constants
    # ------------------------------------------------------------------ #
    @property
    def modulus(self) -> int:
        """The ring modulus ``2^bits``."""
        return 1 << self.bits

    @property
    def mask(self) -> int:
        """Bit mask ``2^bits - 1`` used to reduce Python integers."""
        return self.modulus - 1

    @property
    def half(self) -> int:
        """The signed/unsigned boundary ``2^(bits-1)``."""
        return 1 << (self.bits - 1)

    @property
    def dtype(self) -> np.dtype:
        """Numpy dtype used for vectorised ring arrays."""
        return np.dtype(np.uint64)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, value: IntOrArray) -> IntOrArray:
        """Map a (signed) integer or integer array into the ring.

        Negative integers wrap around, so ``encode(-1) == modulus - 1``.
        Arrays already stored in the ring dtype may be returned without a
        copy, so callers must treat the result as read-only.

        Examples
        --------
        >>> ring = Ring(bits=16)
        >>> ring.encode(-1)
        65535
        >>> ring.decode_signed(ring.add(ring.encode(-5), ring.encode(12)))
        7
        """
        if isinstance(value, np.ndarray):
            if value.dtype == self.dtype:
                if self.bits == 64:
                    return value
                return value & self.dtype.type(self.mask)
            return np.asarray(value).astype(np.int64).astype(self.dtype) & self.dtype.type(self.mask)
        return int(value) & self.mask

    def decode_signed(self, value: IntOrArray) -> IntOrArray:
        """Map ring elements back to signed integers in ``[-2^(l-1), 2^(l-1))``."""
        if isinstance(value, np.ndarray):
            unsigned = np.asarray(value, dtype=self.dtype).astype(object)
            return np.where(unsigned >= self.half, unsigned - self.modulus, unsigned).astype(object)
        unsigned = int(value) & self.mask
        return unsigned - self.modulus if unsigned >= self.half else unsigned

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a: IntOrArray, b: IntOrArray) -> IntOrArray:
        """``(a + b) mod 2^l``."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            out = np.asarray(a, dtype=self.dtype) + np.asarray(b, dtype=self.dtype)
            # uint64 addition wraps modulo 2^64 natively; only narrower rings
            # need the explicit reduction pass.
            return out if self.bits == 64 else out & self.dtype.type(self.mask)
        return (int(a) + int(b)) & self.mask

    def sub(self, a: IntOrArray, b: IntOrArray) -> IntOrArray:
        """``(a - b) mod 2^l``."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            out = np.asarray(a, dtype=self.dtype) - np.asarray(b, dtype=self.dtype)
            return out if self.bits == 64 else out & self.dtype.type(self.mask)
        return (int(a) - int(b)) & self.mask

    def mul(self, a: IntOrArray, b: IntOrArray) -> IntOrArray:
        """``(a * b) mod 2^l``."""
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            out = np.asarray(a, dtype=self.dtype) * np.asarray(b, dtype=self.dtype)
            return out if self.bits == 64 else out & self.dtype.type(self.mask)
        return (int(a) * int(b)) & self.mask

    def sum(self, values: np.ndarray) -> int:
        """Reduce a share vector to a single ring element, ``sum(values) mod 2^l``.

        This is the one reduction every backend performs after an opening
        round (accumulating product shares into the running count share).
        uint64 accumulation wraps modulo ``2^64`` natively, so the result only
        needs masking for narrower rings.
        """
        total = int(np.sum(np.asarray(values, dtype=self.dtype), dtype=np.uint64))
        return total & self.mask

    def neg(self, a: IntOrArray) -> IntOrArray:
        """``(-a) mod 2^l``."""
        return self.sub(0, a) if not isinstance(a, np.ndarray) else self.sub(np.zeros_like(np.asarray(a, dtype=self.dtype)), a)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product in the ring (element-wise reduction mod ``2^l``).

        Large 2-D products (:func:`limb_matmul_applies`) run as exact
        float64 GEMMs over 22-bit limbs; the rest as int64 ``@``.  Both are
        bit-identical to the product modulo ``2^l``.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if limb_matmul_applies(a.shape, b.shape):
            product = _limb_matmul(a, b, -(-self.bits // LIMB_BITS))
        else:
            # Two's-complement int64 multiplication and addition wrap modulo
            # 2^64, so reinterpreting the uint64 operands as int64,
            # multiplying, and reinterpreting back is exact in Z_{2^64}.
            product = (a.view(np.int64) @ b.view(np.int64)).view(np.uint64)
        if self.bits < 64:
            product &= self.dtype.type(self.mask)
        return product

    def matmul_lower_upper(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Strict upper triangle of ``a @ b`` for lower-triangular *a* and upper *b*.

        Bitwise ``keep_strict_upper(ring.matmul(a, b))`` when *a* is zero
        above its diagonal and *b* is zero below its own; raises
        :class:`~repro.exceptions.ProtocolError` otherwise.  On the limb
        path only the :data:`LIMB_STRIP`-square output blocks ``(r, c)``
        with ``r <= c`` are computed, each over the inner indices below
        ``min(r_end, c_end)`` (10 units of ``256^3`` at ``n = 768``, where
        the full product costs 27); below the crossover the full int64
        product is masked.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        _check_lower_upper(a, b)
        if limb_matmul_applies(a.shape, b.shape):
            product = _limb_matmul(a, b, -(-self.bits // LIMB_BITS), lower_upper=True)
        else:
            # The lower operand is often a transposed view, which int64 @
            # multiplies about 15% slower than a contiguous copy at n = 64.
            a = np.ascontiguousarray(a)
            product = (a.view(np.int64) @ b.view(np.int64)).view(np.uint64)
        if self.bits < 64:
            product &= self.dtype.type(self.mask)
        return keep_strict_upper(product)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def random_element(self, rng: RandomState = None) -> int:
        """Uniformly random ring element (a single mask value)."""
        generator = derive_rng(rng)
        return int(generator.integers(0, self.modulus, dtype=np.uint64)) & self.mask

    def random_array(self, shape, rng: RandomState = None) -> np.ndarray:
        """Array of uniformly random ring elements with the given *shape*."""
        generator = derive_rng(rng)
        raw = generator.integers(0, self.modulus if self.bits < 64 else np.iinfo(np.uint64).max,
                                 size=shape, dtype=np.uint64, endpoint=self.bits == 64)
        if self.bits == 64:
            return raw
        return np.asarray(raw, dtype=self.dtype) & self.dtype.type(self.mask)


#: The ring used throughout CARGO unless a caller overrides it.
DEFAULT_RING = Ring(bits=64)
