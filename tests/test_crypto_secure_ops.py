"""Tests for repro.crypto.secure_ops: correctness of the secure protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.beaver import BeaverTriple, BeaverTripleDealer, BeaverTriplePair
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import (
    DEFAULT_RING,
    Ring,
    keep_strict_upper,
    pack_strict_upper,
    unpack_strict_upper,
)
from repro.crypto.secure_ops import (
    matrix_beaver_share,
    secure_add,
    secure_matrix_multiply,
    secure_multiply_pair,
    secure_multiply_triple,
    secure_triangular_gram,
)
from repro.crypto.views import ViewRecorder
from repro.crypto.sharing import reconstruct, reconstruct_vector, share_scalar, share_vector
from repro.exceptions import ProtocolError


class TestSecureAdd:
    def test_addition_of_shared_values(self):
        a = share_scalar(10, rng=0)
        b = share_scalar(-3, rng=1)
        s1, s2 = secure_add((a.share1, a.share2), (b.share1, b.share2))
        assert reconstruct(s1, s2, signed=True) == 7

    def test_vector_addition(self):
        a = share_vector(np.array([1, 2, 3]), rng=0)
        b = share_vector(np.array([10, 20, 30]), rng=1)
        s1, s2 = secure_add((a.share1, a.share2), (b.share1, b.share2))
        assert list(reconstruct_vector(s1, s2)) == [11, 22, 33]


class TestSecureMultiplyPair:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (0, 1), (7, 11), (123, 456)])
    def test_scalar_products(self, a, b):
        dealer = BeaverTripleDealer(seed=0)
        a_pair = share_scalar(a, rng=1)
        b_pair = share_scalar(b, rng=2)
        s1, s2 = secure_multiply_pair(
            (a_pair.share1, a_pair.share2),
            (b_pair.share1, b_pair.share2),
            dealer.scalar_triple(),
        )
        assert reconstruct(s1, s2) == a * b

    def test_vector_products(self):
        dealer = BeaverTripleDealer(seed=3)
        a = np.array([0, 1, 1, 0, 5])
        b = np.array([1, 1, 0, 0, 4])
        a_pair = share_vector(a, rng=4)
        b_pair = share_vector(b, rng=5)
        triple = dealer.vector_triple((5,))
        s1, s2 = secure_multiply_pair(
            (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), triple
        )
        assert list(reconstruct_vector(s1, s2)) == [0, 1, 0, 0, 20]

    def test_small_ring(self):
        ring = Ring(bits=16)
        dealer = BeaverTripleDealer(ring=ring, seed=6)
        a_pair = share_scalar(250, ring=ring, rng=7)
        b_pair = share_scalar(251, ring=ring, rng=8)
        s1, s2 = secure_multiply_pair(
            (a_pair.share1, a_pair.share2),
            (b_pair.share1, b_pair.share2),
            dealer.scalar_triple(),
            ring=ring,
        )
        assert reconstruct(s1, s2, ring=ring) == (250 * 251) % ring.modulus


class TestSecureMultiplyTriple:
    @pytest.mark.parametrize(
        "a,b,c",
        [(0, 0, 0), (1, 1, 1), (1, 1, 0), (0, 1, 1), (2, 3, 5), (17, 19, 23)],
    )
    def test_scalar_triple_products(self, a, b, c):
        dealer = MultiplicationGroupDealer(seed=0)
        pairs = [share_scalar(value, rng=index) for index, value in enumerate((a, b, c))]
        s1, s2 = secure_multiply_triple(
            (pairs[0].share1, pairs[0].share2),
            (pairs[1].share1, pairs[1].share2),
            (pairs[2].share1, pairs[2].share2),
            dealer.scalar_group(),
        )
        assert reconstruct(s1, s2) == a * b * c

    def test_all_bit_combinations(self):
        """Theorem 1 on every 0/1 combination — the triangle-indicator case."""
        dealer = MultiplicationGroupDealer(seed=1)
        for bits in range(8):
            a, b, c = (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
            pairs = [share_scalar(v, rng=100 + bits * 3 + i) for i, v in enumerate((a, b, c))]
            s1, s2 = secure_multiply_triple(
                (pairs[0].share1, pairs[0].share2),
                (pairs[1].share1, pairs[1].share2),
                (pairs[2].share1, pairs[2].share2),
                dealer.scalar_group(),
            )
            assert reconstruct(s1, s2) == a * b * c

    def test_vectorised_triple_products(self):
        dealer = MultiplicationGroupDealer(seed=2)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=50)
        b = rng.integers(0, 2, size=50)
        c = rng.integers(0, 2, size=50)
        a_pair = share_vector(a, rng=4)
        b_pair = share_vector(b, rng=5)
        c_pair = share_vector(c, rng=6)
        group = dealer.vector_group((50,))
        s1, s2 = secure_multiply_triple(
            (a_pair.share1, a_pair.share2),
            (b_pair.share1, b_pair.share2),
            (c_pair.share1, c_pair.share2),
            group,
        )
        assert list(reconstruct_vector(s1, s2)) == list(a * b * c)


class TestSecureMatrixMultiply:
    def test_matrix_product(self):
        dealer = BeaverTripleDealer(seed=0)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, size=(4, 6))
        b = rng.integers(0, 5, size=(6, 3))
        a_pair = share_vector(a, rng=2)
        b_pair = share_vector(b, rng=3)
        triple = dealer.matrix_triple((4, 6), (6, 3))
        s1, s2 = secure_matrix_multiply(
            (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), triple
        )
        expected = (a @ b).astype(np.uint64)
        assert np.array_equal(reconstruct_vector(s1, s2), expected)

    def test_shape_mismatch_rejected(self):
        dealer = BeaverTripleDealer(seed=4)
        a_pair = share_vector(np.zeros((2, 2), dtype=np.int64), rng=5)
        b_pair = share_vector(np.zeros((2, 2), dtype=np.int64), rng=6)
        triple = dealer.matrix_triple((3, 3), (3, 3))
        with pytest.raises(ProtocolError):
            secure_matrix_multiply(
                (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), triple
            )

    def test_adjacency_cube_trace(self):
        """trace(A^3) computed on shares equals 6x the triangle count."""
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.triangles import count_triangles

        graph = erdos_renyi_graph(12, 0.4, seed=7)
        adjacency = graph.adjacency_matrix()
        dealer = BeaverTripleDealer(seed=8)
        a_pair = share_vector(adjacency, rng=9)
        shares = (a_pair.share1, a_pair.share2)
        triple1 = dealer.matrix_triple((12, 12), (12, 12))
        square = secure_matrix_multiply(shares, shares, triple1)
        triple2 = dealer.matrix_triple((12, 12), (12, 12))
        cube = secure_matrix_multiply(square, shares, triple2)
        total = reconstruct_vector(cube[0], cube[1])
        assert int(np.trace(total.astype(np.int64))) == 6 * count_triangles(graph)


def _three_product_shares(ring, a_shares, b_shares, triple):
    """Reference shares: ``<Z> + E @ <Y> + <X> @ F`` plus ``E @ F`` on server 2."""
    t1, t2 = triple.server1, triple.server2
    e = ring.add(ring.sub(a_shares[0], t1.x), ring.sub(a_shares[1], t2.x))
    f = ring.add(ring.sub(b_shares[0], t1.y), ring.sub(b_shares[1], t2.y))
    share1 = ring.add(ring.add(t1.z, ring.matmul(e, t1.y)), ring.matmul(t1.x, f))
    share2 = ring.add(ring.add(t2.z, ring.matmul(e, t2.y)), ring.matmul(t2.x, f))
    return share1, ring.add(share2, ring.matmul(e, f)), e, f


class TestMatrixBeaverCombination:
    """The two-product combination is bitwise the three-product one, per share."""

    # 40: int64 path; 300: limb path with a partial strip.
    @pytest.mark.parametrize("n", [40, 300])
    @pytest.mark.parametrize("bits", [16, 63, 64])
    def test_folded_shares_match_three_product_reference(self, n, bits):
        ring = Ring(bits=bits)
        dealer = BeaverTripleDealer(ring=ring, seed=n + bits)
        rng = np.random.default_rng(bits)
        a_shares = (ring.random_array((n, n), rng), ring.random_array((n, n), rng))
        b_shares = (ring.random_array((n, n), rng), ring.random_array((n, n), rng))
        triple = dealer.matrix_triple((n, n), (n, n))
        ref1, ref2, _, _ = _three_product_shares(ring, a_shares, b_shares, triple)
        s1, s2 = secure_matrix_multiply(a_shares, b_shares, triple, ring=ring)
        assert np.array_equal(s1, ref1)
        assert np.array_equal(s2, ref2)

    def test_pool_matmul_matches(self):
        ring = DEFAULT_RING
        dealer = BeaverTripleDealer(seed=3)
        rng = np.random.default_rng(4)
        shares = (ring.random_array((200, 200), rng), ring.random_array((200, 200), rng))
        triple = dealer.matrix_triple((200, 200), (200, 200))
        serial = secure_matrix_multiply(shares, shares, triple)
        striped = secure_matrix_multiply(
            shares, shares, triple,
            matmul=lambda a, b: np.concatenate(
                [ring.matmul(a[:70], b), ring.matmul(a[70:], b)]
            ),
        )
        assert np.array_equal(serial[0], striped[0])
        assert np.array_equal(serial[1], striped[1])

    def test_in_process_triple_is_not_mutated(self):
        dealer = BeaverTripleDealer(seed=5)
        rng = np.random.default_rng(6)
        shares = tuple(DEFAULT_RING.random_array((130, 130), rng) for _ in range(2))
        triple = dealer.matrix_triple((130, 130), (130, 130))
        before = [h.copy() for t in (triple.server1, triple.server2) for h in (t.x, t.y, t.z)]
        secure_matrix_multiply(shares, shares, triple)
        after = [h for t in (triple.server1, triple.server2) for h in (t.x, t.y, t.z)]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_owned_half_forms_y_plus_f_in_place(self):
        ring = DEFAULT_RING
        dealer = BeaverTripleDealer(seed=7)
        rng = np.random.default_rng(8)
        a_shares = (ring.random_array((50, 60), rng), ring.random_array((50, 60), rng))
        b_shares = (ring.random_array((60, 70), rng), ring.random_array((60, 70), rng))
        triple = dealer.matrix_triple((50, 60), (60, 70))
        _, ref2, e, f = _three_product_shares(ring, a_shares, b_shares, triple)
        half = triple.server2
        y_plus_f = ring.add(half.y, f)
        owned = BeaverTriple(x=half.x.copy(), y=half.y.copy(), z=half.z.copy())
        share = matrix_beaver_share(2, e, f, owned, ring, owned=True)
        assert np.array_equal(share, ref2)
        assert np.array_equal(owned.y, y_plus_f)


def _strictly_upper_shares(ring, n, rng):
    """Two shares of a strictly upper-triangular secret, each itself strictly upper."""
    return tuple(np.triu(ring.random_array((n, n), rng), k=1) for _ in range(2))


class TestTriangularGram:
    """Packed triangular Beaver products: the strict upper triangle of ``C^T C``."""

    # 40: int64 path; 300: limb path with a partial strip.
    @pytest.mark.parametrize("n", [3, 40, 300])
    @pytest.mark.parametrize("bits", [16, 63, 64])
    def test_reconstructs_strict_upper_gram(self, n, bits):
        ring = Ring(bits=bits)
        c1, c2 = _strictly_upper_shares(ring, n, np.random.default_rng(n + bits))
        triple = BeaverTripleDealer(ring=ring, seed=bits).triangular_triple(n)
        m1, m2 = secure_triangular_gram(
            (pack_strict_upper(c1), pack_strict_upper(c2)), n, triple, ring=ring
        )
        c = ring.add(c1, c2)
        expected = pack_strict_upper(keep_strict_upper(ring.matmul(c.T.copy(), c)))
        assert m1.shape == m2.shape == (n * (n - 1) // 2,)
        assert np.array_equal(ring.add(m1, m2), expected)

    @pytest.mark.parametrize("n", [40, 300])
    def test_shares_equal_dense_fold_on_unpacked_triple(self, n):
        """Per share, the packed fold is the dense two-product fold, masked."""
        ring = DEFAULT_RING
        c1, c2 = _strictly_upper_shares(ring, n, np.random.default_rng(n))
        triple = BeaverTripleDealer(seed=n).triangular_triple(n)
        packed = secure_triangular_gram(
            (pack_strict_upper(c1), pack_strict_upper(c2)), n, triple
        )

        def dense(half):
            x = unpack_strict_upper(half.x, n).T
            y = unpack_strict_upper(half.y, n)
            z = unpack_strict_upper(half.z, n)
            return BeaverTriple(x=x, y=y, z=z)

        dense_pair = BeaverTriplePair(server1=dense(triple.server1), server2=dense(triple.server2))
        unmasked = secure_matrix_multiply(
            (c1.T.copy(), c2.T.copy()), (c1, c2), dense_pair
        )
        for share, full in zip(packed, unmasked):
            assert np.array_equal(share, pack_strict_upper(full))

    def test_dealt_triple_is_packed_and_correlated(self):
        n = 50
        size = n * (n - 1) // 2
        dealer = BeaverTripleDealer(seed=4)
        x, y, z = dealer.triangular_triple(n).plaintext()
        assert x.shape == y.shape == z.shape == (size,)
        lower = unpack_strict_upper(x, n).T
        upper = unpack_strict_upper(y, n)
        expected = pack_strict_upper(keep_strict_upper(DEFAULT_RING.matmul(lower, upper)))
        assert np.array_equal(z, expected)
        assert dealer.largest_triple_elements == 3 * size

    def test_views_are_two_packed_vectors(self):
        n = 30
        ring = DEFAULT_RING
        c1, c2 = _strictly_upper_shares(ring, n, np.random.default_rng(1))
        views = ViewRecorder()
        triple = BeaverTripleDealer(seed=2).triangular_triple(n)
        secure_triangular_gram(
            (pack_strict_upper(c1), pack_strict_upper(c2)), n, triple, views=views
        )
        for server in (1, 2):
            (opened,) = views.view(server).values("matrix_beaver_opening")
            assert [np.shape(part) for part in opened] == [(n * (n - 1) // 2,)] * 2

    @pytest.mark.parametrize("server", [1, 2])
    @pytest.mark.parametrize("field", ["x", "y", "z"])
    def test_mismatched_half_rejected(self, server, field):
        n = 6
        triple = BeaverTripleDealer(seed=9).triangular_triple(n)
        halves = {1: triple.server1, 2: triple.server2}
        fields = dict(x=halves[server].x, y=halves[server].y, z=halves[server].z)
        fields[field] = fields[field][:-1]
        halves[server] = BeaverTriple(**fields)
        broken = BeaverTriplePair(server1=halves[1], server2=halves[2])
        c = np.zeros(n * (n - 1) // 2, dtype=np.uint64)
        with pytest.raises(ProtocolError, match=f"server {server}'s triangular triple"):
            secure_triangular_gram((c, c), n, broken)


class TestMatrixTripleShapeChecks:
    """Each server checks its own triple half; none broadcasts silently."""

    @pytest.mark.parametrize("server", [1, 2])
    @pytest.mark.parametrize("field", ["x", "y", "z"])
    def test_row_shaped_half_rejected(self, server, field):
        n = 6
        dealer = BeaverTripleDealer(seed=9)
        a_pair = share_vector(np.ones((n, n), dtype=np.int64), rng=10)
        shares = (a_pair.share1, a_pair.share2)
        triple = dealer.matrix_triple((n, n), (n, n))
        halves = {1: triple.server1, 2: triple.server2}
        fields = dict(x=halves[server].x, y=halves[server].y, z=halves[server].z)
        fields[field] = fields[field][:1]  # shape (1, n): would broadcast
        halves[server] = BeaverTriple(**fields)
        broken = BeaverTriplePair(server1=halves[1], server2=halves[2])
        with pytest.raises(ProtocolError, match=f"server {server}'s matrix triple"):
            secure_matrix_multiply(shares, shares, broken)
