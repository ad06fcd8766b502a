"""Tests for repro.crypto.ring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.ring import (
    DEFAULT_RING,
    LIMB_BITS,
    LIMB_INNER_CHUNK,
    LIMB_MATMUL_CROSSOVER,
    LIMB_STRIP,
    Ring,
    keep_strict_upper,
    limb_matmul_applies,
    pack_strict_upper,
    unpack_strict_upper,
)
from repro.exceptions import ConfigurationError, ProtocolError


class TestConstruction:
    def test_default_ring_is_64_bits(self):
        assert DEFAULT_RING.bits == 64
        assert DEFAULT_RING.modulus == 2**64

    @pytest.mark.parametrize("bits", [1, 0, 65, 128])
    def test_invalid_bit_width(self, bits):
        with pytest.raises(ConfigurationError):
            Ring(bits=bits)

    def test_constants(self):
        ring = Ring(bits=8)
        assert ring.modulus == 256
        assert ring.mask == 255
        assert ring.half == 128


class TestScalarArithmetic:
    def test_add_wraps(self):
        ring = Ring(bits=8)
        assert ring.add(200, 100) == (300) % 256

    def test_sub_wraps(self):
        ring = Ring(bits=8)
        assert ring.sub(5, 10) == 251

    def test_mul_wraps(self):
        ring = Ring(bits=8)
        assert ring.mul(16, 16) == 0

    def test_neg(self):
        ring = Ring(bits=8)
        assert ring.add(ring.neg(37), 37) == 0

    def test_encode_negative(self):
        ring = Ring(bits=8)
        assert ring.encode(-1) == 255

    def test_decode_signed_roundtrip(self):
        ring = Ring(bits=16)
        for value in (-5000, -1, 0, 1, 5000):
            assert ring.decode_signed(ring.encode(value)) == value

    def test_decode_signed_boundary(self):
        ring = Ring(bits=8)
        assert ring.decode_signed(127) == 127
        assert ring.decode_signed(128) == -128
        assert ring.decode_signed(255) == -1

    def test_default_ring_large_values(self):
        value = 2**62 + 12345
        assert DEFAULT_RING.decode_signed(DEFAULT_RING.encode(value)) == value


class TestArrayArithmetic:
    def test_elementwise_add(self):
        ring = Ring(bits=16)
        a = np.array([1, 2, 65535], dtype=np.uint64)
        b = np.array([1, 1, 1], dtype=np.uint64)
        assert ring.add(a, b).tolist() == [2, 3, 0]

    def test_elementwise_mul(self):
        ring = Ring(bits=8)
        a = np.array([10, 20], dtype=np.uint64)
        b = np.array([30, 40], dtype=np.uint64)
        assert ring.mul(a, b).tolist() == [(300) % 256, (800) % 256]

    def test_encode_negative_array(self):
        ring = Ring(bits=8)
        encoded = ring.encode(np.array([-1, -2]))
        assert encoded.tolist() == [255, 254]

    def test_matmul_matches_plain_modular_product(self):
        ring = Ring(bits=32)
        rng = np.random.default_rng(0)
        a = ring.random_array((5, 4), rng)
        b = ring.random_array((4, 3), rng)
        expected = (a.astype(object) @ b.astype(object)) % ring.modulus
        assert np.array_equal(ring.matmul(a, b).astype(object), expected)

    def test_matmul_default_ring(self):
        ring = DEFAULT_RING
        rng = np.random.default_rng(1)
        a = ring.random_array((3, 3), rng)
        b = ring.random_array((3, 3), rng)
        expected = (a.astype(object) @ b.astype(object)) % ring.modulus
        assert np.array_equal(ring.matmul(a, b).astype(object), expected)



def _int64_reference(ring, a, b):
    product = (a.view(np.int64) @ b.view(np.int64)).view(np.uint64)
    return product & np.uint64(ring.mask)


def _full_range(shape, rng):
    """Uniform uint64 operands with an all-ones row and column (2^64 - 1)."""
    x = rng.integers(0, np.iinfo(np.uint64).max, size=shape, dtype=np.uint64, endpoint=True)
    x[1, :] = np.iinfo(np.uint64).max
    x[:, -1] = np.iinfo(np.uint64).max
    return x


class TestLimbMatmul:
    """The 22-bit-limb float64 GEMM path is bit-identical to int64 ``@``."""

    # Limb counts change between 22/23 and 44/45 bits.
    @pytest.mark.parametrize("bits", [16, 22, 23, 44, 45, 63, 64])
    @pytest.mark.parametrize(
        "m,k,n",
        [
            (LIMB_MATMUL_CROSSOVER, LIMB_MATMUL_CROSSOVER, LIMB_MATMUL_CROSSOVER),
            (LIMB_STRIP, LIMB_STRIP, LIMB_STRIP),
            (513, 257, 600),  # straddles the strip boundaries on every axis
            (LIMB_MATMUL_CROSSOVER - 1, 300, 300),  # below the crossover: int64 path
            # Inner dimensions straddling the chunk boundaries.
            (LIMB_MATMUL_CROSSOVER, LIMB_INNER_CHUNK - 1, LIMB_MATMUL_CROSSOVER + 1),
            (LIMB_MATMUL_CROSSOVER, LIMB_INNER_CHUNK, LIMB_MATMUL_CROSSOVER + 1),
            (LIMB_MATMUL_CROSSOVER, LIMB_INNER_CHUNK + 1, LIMB_MATMUL_CROSSOVER + 1),
            (LIMB_MATMUL_CROSSOVER, 2 * LIMB_INNER_CHUNK + 1, LIMB_MATMUL_CROSSOVER + 1),
        ],
    )
    def test_matches_int64_reference(self, bits, m, k, n):
        ring = Ring(bits=bits)
        rng = np.random.default_rng(m * 7 + k * 3 + n + bits)
        a = _full_range((m, k), rng)
        b = _full_range((k, n), rng)
        product = ring.matmul(a, b)
        assert product.dtype == np.uint64
        assert np.array_equal(product, _int64_reference(ring, a, b))

    def test_all_ones_operands(self):
        """Every limb saturated over a full chunk: the largest partial sums the GEMMs produce."""
        ones = np.iinfo(np.uint64).max
        a = np.full((LIMB_MATMUL_CROSSOVER, LIMB_INNER_CHUNK), ones, dtype=np.uint64)
        b = np.full((LIMB_INNER_CHUNK, LIMB_MATMUL_CROSSOVER), ones, dtype=np.uint64)
        expected = _int64_reference(DEFAULT_RING, a, b)
        assert np.array_equal(DEFAULT_RING.matmul(a, b), expected)

    def test_chunk_partial_sums_are_exact_in_float64(self):
        assert LIMB_INNER_CHUNK * ((1 << LIMB_BITS) - 1) ** 2 < 1 << 53

    def test_dispatch_predicate(self):
        big = LIMB_MATMUL_CROSSOVER
        assert limb_matmul_applies((big, big), (big, big))
        assert not limb_matmul_applies((big - 1, big), (big, big))
        assert not limb_matmul_applies((big, big - 1), (big - 1, big))
        assert not limb_matmul_applies((big, big), (big, big - 1))
        # Batched (3-D) and vector products stay on int64 @.
        assert not limb_matmul_applies((2, big, big), (2, big, big))
        assert not limb_matmul_applies((big,), (big, big))

    def test_dispatch_covers_wide_inner_dimension(self):
        """Chunking the inner dimension makes the limb path exact for every k."""
        wide = 1 << 22
        assert limb_matmul_applies((256, wide), (wide, 256))


class TestLowerUpperMatmul:
    """``matmul_lower_upper`` is bitwise the strict upper triangle of the full product."""

    @pytest.mark.parametrize("bits", [16, 23, 64])
    # Both sides of the crossover, of every strip and inner-chunk boundary,
    # and past the matrix backend's n = 768.
    @pytest.mark.parametrize(
        "n", [64, 127, 128, 255, 256, 257, 300, 511, 512, 513, 768, 1025]
    )
    def test_matches_strict_upper_of_full_product(self, bits, n):
        ring = Ring(bits=bits)
        rng = np.random.default_rng(n + bits)
        lower = np.tril(_full_range((n, n), rng))
        upper = np.triu(_full_range((n, n), rng))
        product = ring.matmul_lower_upper(lower, upper)
        assert product.dtype == np.uint64
        assert np.array_equal(product, keep_strict_upper(ring.matmul(lower, upper)))

    @pytest.mark.parametrize(
        "m,k,n", [(300, 513, 257), (257, 200, 600), (600, 130, 257), (LIMB_STRIP + 1, 128, 128)]
    )
    def test_rectangular_products(self, m, k, n):
        rng = np.random.default_rng(m + k + n)
        lower = np.tril(_full_range((m, k), rng))
        upper = np.triu(_full_range((k, n), rng))
        expected = keep_strict_upper(DEFAULT_RING.matmul(lower, upper))
        assert np.array_equal(DEFAULT_RING.matmul_lower_upper(lower, upper), expected)

    @pytest.mark.parametrize("n", [40, 300])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("far", [False, True])
    def test_rejects_operands_off_their_triangle(self, n, side, far):
        rng = np.random.default_rng(n)
        lower = np.tril(_full_range((n, n), rng))
        upper = np.triu(_full_range((n, n), rng))
        # Just off the diagonal, or in the far corner (outside the
        # diagonal strip of the limb path).
        row, col = (0, n - 1) if far else (n - 2, n - 1)
        if side == "left":
            lower[row, col] = 1
        else:
            upper[col, row] = 1
        with pytest.raises(ProtocolError, match=side):
            DEFAULT_RING.matmul_lower_upper(lower, upper)

    def test_keep_strict_upper_is_in_place_mask(self):
        rng = np.random.default_rng(5)
        x = _full_range((2 * LIMB_STRIP + 3, 3 * LIMB_STRIP), rng)
        expected = np.triu(x, k=1)
        assert keep_strict_upper(x) is x
        assert np.array_equal(x, expected)


class TestStrictUpperPacking:
    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    def test_pack_is_row_major_triu_and_unpack_inverts_it(self, n):
        rng = np.random.default_rng(n)
        x = _full_range((n, n), rng) if n > 2 else np.arange(4, dtype=np.uint64).reshape(2, 2)
        packed = pack_strict_upper(x)
        assert packed.shape == (n * (n - 1) // 2,)
        assert np.array_equal(packed, x[np.triu_indices(n, k=1)])
        assert np.array_equal(unpack_strict_upper(packed, n), np.triu(x, k=1))


class TestSampling:
    def test_random_element_in_range(self):
        ring = Ring(bits=8)
        rng = np.random.default_rng(2)
        values = [ring.random_element(rng) for _ in range(200)]
        assert all(0 <= value < 256 for value in values)
        assert len(set(values)) > 50  # not constant

    def test_random_array_shape_and_range(self):
        ring = Ring(bits=16)
        array = ring.random_array((10, 10), np.random.default_rng(3))
        assert array.shape == (10, 10)
        assert int(array.max()) < ring.modulus

    def test_random_array_default_ring_spans_high_bits(self):
        array = DEFAULT_RING.random_array(1000, np.random.default_rng(4))
        # With 1000 uniform draws over 2^64, some should exceed 2^63.
        assert int(array.max()) > 2**63


class TestRingSum:
    def test_sum_matches_python_mod(self):
        ring = Ring(bits=16)
        values = np.array([65535, 3, 70000], dtype=np.uint64)
        assert ring.sum(values) == (65535 + 3 + 70000) % 65536

    def test_sum_wraps_at_64_bits(self):
        values = np.array([2**63, 2**63, 5], dtype=np.uint64)
        assert DEFAULT_RING.sum(values) == 5

    def test_sum_of_empty_is_zero(self):
        assert DEFAULT_RING.sum(np.array([], dtype=np.uint64)) == 0

    def test_sum_accepts_matrices(self):
        values = np.ones((4, 4), dtype=np.uint64)
        assert DEFAULT_RING.sum(values) == 16
