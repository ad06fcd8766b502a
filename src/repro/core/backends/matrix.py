"""Vectorised secure triangle counting via secret-shared matrix products.

The faithful Algorithm 4 consumes one multiplication group per candidate
triple, which is cubic in the number of users.  This backend computes exactly
the same quantity,

``T = sum_{i<j<k} a_ij * a_ik * a_jk``,

with two opening rounds by rewriting it in matrix form.  Let ``C`` be the
strictly upper-triangular matrix with ``C[i, j] = a_ij`` for ``i < j`` (each
entry taken from user ``i``'s shared row, exactly the bits Algorithm 4
reads).  Then

``T = sum_{j<k} C[j, k] * (C^T C)[j, k]``

because ``(C^T C)[j, k] = sum_i C[i, j] C[i, k]`` and the strict upper
triangularity of ``C`` enforces ``i < j``.  The servers therefore

1. locally pack their shares of the strict upper triangle into
   ``N = n(n-1)/2``-vectors (everything else is publicly zero),
2. compute packed shares of the strict upper triangle of ``M = C^T C``
   with one triangular matrix Beaver triple (one opening of two
   ``N``-vectors; two lower-times-upper ring products per server, see
   :func:`~repro.crypto.secure_ops.secure_triangular_gram`), and
3. compute shares of the element-wise product ``C ⊙ M`` over the packed
   triangle with one element-wise Beaver triple, then locally sum.

The three bits entering each product and the final count are identical to
the faithful protocol's; only the grouping of the openings differs, so the
backend is a drop-in replacement for `Count` in experiments at realistic
graph sizes.  Its weakness is memory: the monolithic matrix triple holds
several ``N``-vectors and, while multiplying, ``n x n`` arrays at once,
which is what the ``blocked`` backend
(:mod:`repro.core.backends.blocked`) fixes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backends.base import CountResult, TriangleCounterBackend, num_candidate_triples
from repro.core.backends.registry import register_backend
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.ring import DEFAULT_RING, Ring, pack_strict_upper
from repro.crypto.secure_ops import secure_multiply_pair, secure_triangular_gram
from repro.crypto.views import ViewRecorder
from repro.parallel import TripleSignature
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState


def deal_triangular_triples(dealer: BeaverTripleDealer, n: int):
    """One count's triangular matrix triple and packed element-wise triple.

    The distributed dealer process deals through this too, so in-process
    and distributed runs draw the same material in the same order.
    """
    return dealer.triangular_triple(n), dealer.vector_triple((n * (n - 1) // 2,))


@register_backend("matrix")
class MatrixTriangleCounter(TriangleCounterBackend):
    """Secure triangle counting with secret-shared matrix algebra.

    Parameters
    ----------
    ring:
        Secret-sharing ring.
    dealer:
        Beaver-triple dealer supplying the matrix and element-wise triples; a
        fresh one is created when not supplied.
    views:
        Optional view recorder for the security tests.
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore` memoising the
        triangular matrix and element-wise triples.
    """

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[BeaverTripleDealer] = None,
        views: Optional[ViewRecorder] = None,
        triple_store=None,
        telemetry=None,
        authenticator=None,
    ) -> None:
        super().__init__(
            ring=ring, views=views, telemetry=telemetry, authenticator=authenticator
        )
        self._dealer = dealer if dealer is not None else BeaverTripleDealer(ring=ring)
        self._store = triple_store

    @classmethod
    def from_config(
        cls,
        config,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        authenticator=None,
    ) -> "MatrixTriangleCounter":
        dealer = BeaverTripleDealer(ring=config.ring, seed=dealer_rng)
        return cls(
            ring=config.ring,
            dealer=dealer,
            views=views,
            triple_store=getattr(config, "triple_store", None),
            telemetry=resolve_telemetry(config),
            authenticator=authenticator,
        )

    def _dealt_triples(self, n: int):
        """The run's two triples: via the triple store when one is configured."""
        if self._store is None:
            return deal_triangular_triples(self._dealer, n)
        signature = TripleSignature(
            statistic="triangles",
            backend="matrix",
            num_users=n,
            geometry=(("layout", "triangular"),),
            ring_bits=self._ring.bits,
            dealer_key=self._dealer.fingerprint(),
        )
        stored = self._store.get(signature)
        if stored is not None:
            self._dealer.absorb_accounting(*stored["accounting"])
            return stored["matrix"], stored["elementwise"]
        before = self._dealer.accounting()
        matrix_triple, elementwise_triple = deal_triangular_triples(self._dealer, n)
        after = self._dealer.accounting()
        self._store.put(
            signature,
            {
                "matrix": matrix_triple,
                "elementwise": elementwise_triple,
                "accounting": (
                    after[0] - before[0],
                    after[1] - before[1],
                    max(after[2], before[2]),
                ),
            },
        )
        return matrix_triple, elementwise_triple

    def count_from_shares(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Run the secure count given each server's share matrix."""
        ring = self._ring
        share1, share2 = self._validate_share_matrices(share1, share2)
        n = share1.shape[0]
        if n < 3:
            return CountResult(share1=0, share2=0, num_triples_processed=0, opening_rounds=0)

        tracer = self._telemetry.tracer
        num_triples = num_candidate_triples(n)
        with tracer.span(
            "backend", backend="matrix", num_users=n, candidates=num_triples
        ):
            # Step 1 — each server locally packs the strict upper triangle.
            # The positions are public (they only depend on indices), and
            # every entry outside them is zero in C.
            c1 = pack_strict_upper(share1)
            c2 = pack_strict_upper(share2)

            # Step 2 — packed shares of the strict upper triangle of
            # M = C^T @ C via one triangular matrix Beaver triple; only that
            # triangle enters the count.
            with tracer.span("offline"):
                matrix_triple, elementwise_triple = self._dealt_triples(n)
            with tracer.span("online", opening_rounds=2):
                m1, m2 = secure_triangular_gram(
                    (c1, c2), n, matrix_triple, ring=ring, views=self._views,
                    authenticator=self._authenticator,
                )

                # Step 3 — shares of C ⊙ M over the packed triangle via one
                # element-wise Beaver triple, then a local sum.
                prod1, prod2 = secure_multiply_pair(
                    (c1, c2), (m1, m2), elementwise_triple, ring=ring,
                    views=self._views, authenticator=self._authenticator,
                )
                total1 = ring.sum(prod1)
                total2 = ring.sum(prod2)
        return CountResult(
            share1=total1,
            share2=total2,
            num_triples_processed=num_triples,
            opening_rounds=2,
        )
