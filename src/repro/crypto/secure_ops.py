"""Two-server secure operations on additively shared values.

These functions implement the *online* phase of the secure computations CARGO
needs.  Each function takes the two servers' shares (never the plaintext),
consumes correlated randomness from a dealer where required, and returns the
two output shares.  An optional :class:`~repro.crypto.views.ViewRecorder`
captures exactly what each server observes, which is what the
simulation-security tests check.

* :func:`secure_add` — local addition of shares (no interaction),
* :func:`secure_multiply_pair` — Beaver-triple multiplication of two secrets,
* :func:`secure_multiply_triple` — the paper's three-way multiplication
  (Theorem 1), consuming one multiplication group,
* :func:`secure_matrix_multiply` — matrix-Beaver multiplication of two
  secret-shared matrices, the building block of the blocked backend and
  the 4-cycle statistic,
* :func:`secure_triangular_gram` — the strict upper triangle of ``C^T C``
  for a strictly upper-triangular ``C``, dealt and opened as packed
  vectors: the matrix backend's triangle count.

One server's side of the Beaver products — :func:`beaver_share`,
:func:`matrix_beaver_differences`, :func:`matrix_beaver_share`,
:func:`triangular_beaver_differences` and :func:`triangular_beaver_share`
— is written once here and shared by the in-process functions and the
forked servers of :mod:`repro.runtime.server`.

Every interactive function additionally accepts an optional *authenticator*
(:class:`~repro.crypto.mac.OpeningAuthenticator`).  When present, the
opening round — the only point where values cross the wire — is routed
through its batched MAC-checked ``exchange`` instead of plain ``ring.add``
reconstruction, so a server that lies in an opening triggers a typed
:class:`~repro.exceptions.CheaterDetectedError` rather than a silently
wrong result.  Honest openings are bit-identical either way.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.crypto.beaver import BeaverTriplePair
from repro.crypto.multiplication_groups import MultiplicationGroupPair
from repro.crypto.ring import DEFAULT_RING, Ring, pack_strict_upper, unpack_strict_upper
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError

IntOrArray = Union[int, np.ndarray]
SharePairTuple = Tuple[IntOrArray, IntOrArray]


def secure_add(
    a_shares: SharePairTuple,
    b_shares: SharePairTuple,
    ring: Ring = DEFAULT_RING,
) -> SharePairTuple:
    """Add two shared secrets without any interaction.

    Each server adds its local shares; the sum of the results equals the sum
    of the secrets by linearity of additive sharing.
    """
    return (
        ring.add(a_shares[0], b_shares[0]),
        ring.add(a_shares[1], b_shares[1]),
    )


def secure_multiply_pair(
    a_shares: SharePairTuple,
    b_shares: SharePairTuple,
    triple: BeaverTriplePair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> SharePairTuple:
    """Multiply two shared secrets with one Beaver triple.

    The servers open ``e = a - x`` and ``f = b - y`` (uniformly distributed
    because ``x, y`` are fresh masks) and locally combine them with their
    triple shares.

    Examples
    --------
    >>> from repro.crypto.beaver import BeaverTripleDealer
    >>> from repro.crypto.ring import DEFAULT_RING
    >>> from repro.crypto.sharing import share_scalar
    >>> dealer = BeaverTripleDealer(seed=0)
    >>> a, b = share_scalar(6, rng=1), share_scalar(7, rng=2)
    >>> shares = secure_multiply_pair(
    ...     (a.share1, a.share2), (b.share1, b.share2), dealer.scalar_triple()
    ... )
    >>> int(DEFAULT_RING.decode_signed(DEFAULT_RING.add(*shares)))
    42
    """
    t1, t2 = triple.server1, triple.server2
    e1 = ring.sub(a_shares[0], t1.x)
    f1 = ring.sub(b_shares[0], t1.y)
    e2 = ring.sub(a_shares[1], t2.x)
    f2 = ring.sub(b_shares[1], t2.y)
    # Opening round: both servers learn e and f.
    if authenticator is not None:
        e, f = authenticator.exchange("beaver_opening", [(e1, e2), (f1, f2)])
    else:
        e = ring.add(e1, e2)
        f = ring.add(f1, f2)
    if views is not None:
        views.observe(1, "beaver_opening", (e, f))
        views.observe(2, "beaver_opening", (e, f))
    return beaver_share(1, e, f, t1, ring), beaver_share(2, e, f, t2, ring)


def beaver_share(
    role: int, e: IntOrArray, f: IntOrArray, half, ring: Ring = DEFAULT_RING
) -> IntOrArray:
    """Server *role*'s share of ``a * b`` from the openings and its triple half.

    ``<z> + e <y> + f <x>``, plus the public ``e f`` on server 2.  This is
    the one implementation of the combination: the in-process
    :func:`secure_multiply_pair` and each forked server call it.
    """
    share = ring.add(ring.add(half.z, ring.mul(e, half.y)), ring.mul(f, half.x))
    if role == 2:
        share = ring.add(share, ring.mul(e, f))
    return share


def secure_multiply_triple(
    a_shares: SharePairTuple,
    b_shares: SharePairTuple,
    c_shares: SharePairTuple,
    group: MultiplicationGroupPair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> SharePairTuple:
    """Multiply three shared secrets using one multiplication group.

    Implements the three-way product of Section III-D / Theorem 1 of the
    paper: open ``e = a - x``, ``f = b - y``, ``g = c - z``; then

    ``<d>_i = <w>_i + <o>_i g + <p>_i f + <q>_i e
              + <x>_i f g + <y>_i e g + <z>_i e f + (i - 1) e f g``.

    Works element-wise when the shares and the group are arrays of the same
    shape, which is how the batched faithful ``Count`` processes many
    candidate triples per opening round.
    """
    g1, g2 = group.server1, group.server2
    e1 = ring.sub(a_shares[0], g1.x)
    f1 = ring.sub(b_shares[0], g1.y)
    gg1 = ring.sub(c_shares[0], g1.z)
    e2 = ring.sub(a_shares[1], g2.x)
    f2 = ring.sub(b_shares[1], g2.y)
    gg2 = ring.sub(c_shares[1], g2.z)
    # Opening round: both servers reconstruct the masked differences.
    if authenticator is not None:
        e, f, g = authenticator.exchange(
            "mg_opening", [(e1, e2), (f1, f2), (gg1, gg2)]
        )
    else:
        e = ring.add(e1, e2)
        f = ring.add(f1, f2)
        g = ring.add(gg1, gg2)
    if views is not None:
        views.observe(1, "mg_opening", (e, f, g))
        views.observe(2, "mg_opening", (e, f, g))

    # The pairwise products of the openings are public values both servers
    # compute identically; hoist them out of the per-server combination.
    fg = ring.mul(f, g)
    eg = ring.mul(e, g)
    ef = ring.mul(e, f)

    if (
        ring.bits == 64
        and isinstance(e, np.ndarray)
        and isinstance(g1.w, np.ndarray)
        and g1.w.shape == e.shape
    ):
        # Vectorised 64-bit path: uint64 arithmetic wraps modulo 2^64
        # natively, so the combination runs in-place on two scratch buffers
        # instead of allocating one temporary per term.  Same arithmetic,
        # same openings — only the servers' local evaluation order changes.
        def local_combine(mg, include_efg: bool) -> IntOrArray:
            result = mg.w.copy()
            tmp = np.empty_like(result)
            terms = ((mg.o, g), (mg.p, f), (mg.q, e), (mg.x, fg), (mg.y, eg), (mg.z, ef))
            for coefficient, opened in terms:
                np.multiply(coefficient, opened, out=tmp)
                np.add(result, tmp, out=result)
            if include_efg:
                np.multiply(e, fg, out=tmp)
                np.add(result, tmp, out=result)
            return result

    else:

        def local_combine(mg, include_efg: bool) -> IntOrArray:
            result = mg.w
            result = ring.add(result, ring.mul(mg.o, g))
            result = ring.add(result, ring.mul(mg.p, f))
            result = ring.add(result, ring.mul(mg.q, e))
            result = ring.add(result, ring.mul(mg.x, fg))
            result = ring.add(result, ring.mul(mg.y, eg))
            result = ring.add(result, ring.mul(mg.z, ef))
            if include_efg:
                result = ring.add(result, ring.mul(e, fg))
            return result

    return local_combine(g1, include_efg=False), local_combine(g2, include_efg=True)


def secure_matrix_multiply(
    a_shares: Tuple[np.ndarray, np.ndarray],
    b_shares: Tuple[np.ndarray, np.ndarray],
    triple: BeaverTriplePair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    matmul=None,
    authenticator=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Multiply two secret-shared matrices with a matrix Beaver triple.

    With a triple ``Z = X @ Y`` the servers open ``E = A - X`` and
    ``F = B - Y`` and compute shares of ``A @ B`` as
    ``<Z> + E @ <Y> + <X> @ F + (i - 1) E @ F`` (see
    :func:`matrix_beaver_share`, which evaluates it in two ring products
    per server).

    *matmul* optionally overrides how the servers evaluate their *local*
    matrix products; it must be bit-identical to ``ring.matmul``, so the
    openings — the only values that cross the wire — are unaffected.
    """
    t1, t2 = triple.server1, triple.server2
    e1, f1 = matrix_beaver_differences(1, a_shares[0], b_shares[0], t1, ring)
    e2, f2 = matrix_beaver_differences(2, a_shares[1], b_shares[1], t2, ring)
    e, f = _open_pair(e1, f1, e2, f2, ring, views, authenticator)
    del e1, f1, e2, f2  # four operand-sized arrays, dead before the products
    # In-process triples may be shared with a triple store, so
    # server 2 must not form <Y> + F in place (owned stays False).
    share1 = matrix_beaver_share(1, e, f, t1, ring, matmul=matmul)
    share2 = matrix_beaver_share(2, e, f, t2, ring, matmul=matmul)
    return share1, share2


def _open_pair(e1, f1, e2, f2, ring, views, authenticator):
    """The in-process ``matrix_beaver_opening`` round: both servers learn ``e, f``."""
    if authenticator is not None:
        e, f = authenticator.exchange("matrix_beaver_opening", [(e1, e2), (f1, f2)])
    else:
        e = ring.add(e1, e2)
        f = ring.add(f1, f2)
    if views is not None:
        views.observe(1, "matrix_beaver_opening", (e, f))
        views.observe(2, "matrix_beaver_opening", (e, f))
    return e, f


def matrix_beaver_differences(
    role: int, a: np.ndarray, b: np.ndarray, half, ring: Ring = DEFAULT_RING
) -> Tuple[np.ndarray, np.ndarray]:
    """Server *role*'s masked operands ``(A - <X>, B - <Y>)`` for the opening.

    Raises :class:`~repro.exceptions.ProtocolError` when the server's own
    triple half does not match the operand shapes, rather than letting a
    mismatched half broadcast into wrongly shaped shares.
    """
    a = np.asarray(a, dtype=ring.dtype)
    b = np.asarray(b, dtype=ring.dtype)
    shapes = (np.shape(half.x), np.shape(half.y), np.shape(half.z))
    if shapes != (a.shape, b.shape, a.shape[:-1] + b.shape[1:]):
        raise ProtocolError(
            f"server {role}'s matrix triple shape does not match the operands: "
            f"triple {shapes[0]}@{shapes[1]}->{shapes[2]}, operands {a.shape}@{b.shape}"
        )
    return ring.sub(a, half.x), ring.sub(b, half.y)


def matrix_beaver_share(
    role: int,
    e: np.ndarray,
    f: np.ndarray,
    half,
    ring: Ring = DEFAULT_RING,
    matmul=None,
    owned: bool = False,
) -> np.ndarray:
    """Server *role*'s share of ``A @ B`` from the openings and its triple half.

    Server 1 computes ``<Z> + E @ <Y> + <X> @ F``.  Server 2 folds the
    public ``E @ F`` into its first product, ``<Z> + E @ (<Y> + F) + <X> @ F``,
    which is exact in ``Z_{2^l}``: every server pays two ring products.
    This is the one implementation of the combination: the in-process
    :func:`secure_matrix_multiply` and each forked server call it.

    *matmul* overrides ``ring.matmul`` (bit-identically).  *owned* says the
    caller owns ``half.y``, so server 2 may form ``<Y> + F`` in place.
    """
    share = _beaver_products(
        role, e, f, half.x, half.y, ring, matmul or ring.matmul, owned
    )
    return _add_reduced(share, half.z, ring)


def _beaver_products(role, e, f, x, y, ring, matmul, owned) -> np.ndarray:
    """``E @ <Y> + <X> @ F`` (server 2: ``E @ (<Y> + F) + <X> @ F``), unreduced.

    Accumulates in place into the first (fresh) product; uint64 wraps
    modulo ``2^64``, so :func:`_add_reduced` reduces narrower rings once at
    the end.
    """
    x = np.asarray(x, dtype=ring.dtype)
    y = np.asarray(y, dtype=ring.dtype)
    if role == 2:
        y = np.add(y, f, out=y if owned else None)
        if ring.bits < 64:
            y &= ring.dtype.type(ring.mask)
    share = matmul(e, y)
    del y  # server 2's <Y> + F is dead before the second product
    share += matmul(x, f)
    return share


def _add_reduced(share: np.ndarray, z, ring: Ring) -> np.ndarray:
    """``share + <Z>`` in place, reduced into the ring."""
    share += np.asarray(z, dtype=ring.dtype)
    if ring.bits < 64:
        share &= ring.dtype.type(ring.mask)
    return share


def secure_triangular_gram(
    c_shares: Tuple[np.ndarray, np.ndarray],
    n: int,
    triple: BeaverTriplePair,
    ring: Ring = DEFAULT_RING,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shares of the strict upper triangle of ``C^T @ C`` for strictly upper ``C``.

    *c_shares* are the servers' packed shares of ``C`` (its
    ``N = n(n-1)/2`` entries above the diagonal, in
    :func:`~repro.crypto.ring.pack_strict_upper` order), *triple* a
    :meth:`~repro.crypto.beaver.BeaverTripleDealer.triangular_triple`; the
    returned shares are packed the same way.  The servers open the two
    ``N``-vectors ``e = c - x`` and ``f = c - y`` in one
    ``matrix_beaver_opening`` round: everything outside the triangle is
    publicly zero, so nothing there is dealt, opened or multiplied.
    """
    t1, t2 = triple.server1, triple.server2
    e1, f1 = triangular_beaver_differences(1, c_shares[0], t1, ring)
    e2, f2 = triangular_beaver_differences(2, c_shares[1], t2, ring)
    e, f = _open_pair(e1, f1, e2, f2, ring, views, authenticator)
    return (
        triangular_beaver_share(1, e, f, t1, n, ring),
        triangular_beaver_share(2, e, f, t2, n, ring),
    )


def triangular_beaver_differences(
    role: int, c: np.ndarray, half, ring: Ring = DEFAULT_RING
) -> Tuple[np.ndarray, np.ndarray]:
    """Server *role*'s packed openings ``(c - <x>, c - <y>)`` of a triangular product.

    Raises :class:`~repro.exceptions.ProtocolError` when its own triple
    half is not three vectors of *c*'s length.
    """
    c = np.asarray(c, dtype=ring.dtype)
    shapes = (np.shape(half.x), np.shape(half.y), np.shape(half.z))
    if c.ndim != 1 or shapes != (c.shape,) * 3:
        raise ProtocolError(
            f"server {role}'s triangular triple shape does not match the packed "
            f"operand: triple {shapes}, operand {c.shape}"
        )
    return ring.sub(c, half.x), ring.sub(c, half.y)


def triangular_beaver_share(
    role: int, e: np.ndarray, f: np.ndarray, half, n: int, ring: Ring = DEFAULT_RING
) -> np.ndarray:
    """Server *role*'s packed share of the strict upper triangle of ``C^T @ C``.

    The :func:`matrix_beaver_share` combination for ``A = C^T`` and
    ``B = C``: ``E`` and ``<X>`` are the unpacked ``e`` and ``<x>``
    transposed (strictly lower), ``F`` and ``<Y>`` the unpacked ``f`` and
    ``<y>`` (strictly upper), so both products are
    :meth:`~repro.crypto.ring.Ring.matmul_lower_upper`.  The unpacked
    ``<Y>`` is this server's own buffer, so server 2 forms ``<Y> + F`` in
    place.  This is the one implementation: the in-process
    :func:`secure_triangular_gram` and each forked server call it.
    """
    share = pack_strict_upper(
        _beaver_products(
            role,
            unpack_strict_upper(e, n).T,
            unpack_strict_upper(f, n),
            unpack_strict_upper(half.x, n).T,
            unpack_strict_upper(half.y, n),
            ring,
            ring.matmul_lower_upper,
            owned=True,
        )
    )
    return _add_reduced(share, half.z, ring)
