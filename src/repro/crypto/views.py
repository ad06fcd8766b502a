"""Protocol view recording for simulation-based security checks.

The paper's security argument (Theorem 2) follows the simulation paradigm: a
protocol is secure if each server's *view* — everything it receives during
the execution — can be simulated without knowledge of the private inputs.

For additive secret sharing the simulation is trivial because every message a
server sees is either a fresh uniform ring element (a share) or a
mask-difference that is itself uniform.  The test suite checks the empirical
counterpart of this statement: recorded view values are (a) identical across
re-runs with the same masks, (b) statistically indistinguishable from uniform
when masks are resampled, and (c) independent of the underlying secret.

:class:`ViewRecorder` is the hook the secure operations use to expose what
each server observed; it is inert (and free) when not supplied.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class ViewEntry:
    """A single observation made by one server during a protocol run."""

    server_index: int
    label: str
    value: Any


@dataclass
class ProtocolView:
    """Everything one server observed during a protocol execution."""

    server_index: int
    entries: List[ViewEntry] = field(default_factory=list)

    def values(self, label: str | None = None) -> List[Any]:
        """All observed values, optionally restricted to a message *label*."""
        return [
            entry.value
            for entry in self.entries
            if label is None or entry.label == label
        ]

    def __len__(self) -> int:
        return len(self.entries)


class ViewRecorder:
    """Collects the views of both servers for one protocol execution.

    Appends are serialised with a lock so concurrent protocol stages
    (parallel sweep trials sharing a recorder) cannot corrupt the entry
    lists.  The blocked backend records each tile group into its own shard
    and merges it via :meth:`merge_from` once the group completes, so a
    retried group leaves no partial entries.
    """

    def __init__(self) -> None:
        self._views: Dict[int, ProtocolView] = {
            1: ProtocolView(server_index=1),
            2: ProtocolView(server_index=2),
        }
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        # Checkpoints pickle recorders; the lock is runtime-only state and is
        # recreated fresh on unpickle.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def observe(self, server_index: int, label: str, value: Any) -> None:
        """Record that server *server_index* observed *value* under *label*."""
        if server_index not in self._views:
            raise ProtocolError(f"server index must be 1 or 2, got {server_index}")
        entry = ViewEntry(server_index=server_index, label=label, value=value)
        with self._lock:
            self._views[server_index].entries.append(entry)

    def merge_from(self, shard: "ViewRecorder") -> None:
        """Append every entry of *shard* (both servers), preserving its order.

        The blocked backend calls this once per tile group, in canonical
        schedule order — so the merged recorder is indistinguishable from
        one written directly by the same schedule.

        A malformed *shard* — not a recorder at all, or a recorder whose
        per-server structure was tampered with (missing server, entries for
        a foreign server index, non-entry payloads) — raises a typed
        :class:`~repro.exceptions.ProtocolError` instead of corrupting the
        merged transcript or surfacing a raw attribute/numpy error later.
        """
        shard_views = getattr(shard, "_views", None)
        if not isinstance(shard_views, dict):
            raise ProtocolError(
                f"merge_from expects a ViewRecorder shard, got {type(shard).__name__}"
            )
        if set(shard_views) != set(self._views):
            raise ProtocolError(
                "view shard does not cover both servers: has views for "
                f"{sorted(shard_views)}, expected {sorted(self._views)}"
            )
        for server_index, view in shard_views.items():
            entries = getattr(view, "entries", None)
            if entries is None:
                raise ProtocolError(
                    f"view shard for server {server_index} has no entries list"
                )
            for entry in entries:
                if not isinstance(entry, ViewEntry):
                    raise ProtocolError(
                        f"view shard for server {server_index} holds a "
                        f"{type(entry).__name__}, expected ViewEntry"
                    )
                if entry.server_index != server_index:
                    raise ProtocolError(
                        f"view shard entry labelled {entry.label!r} belongs to "
                        f"server {entry.server_index} but was filed under "
                        f"server {server_index}"
                    )
        with self._lock:
            for server_index, view in self._views.items():
                view.entries.extend(shard_views[server_index].entries)

    def view(self, server_index: int) -> ProtocolView:
        """The full view of server *server_index*."""
        if server_index not in self._views:
            raise ProtocolError(f"server index must be 1 or 2, got {server_index}")
        return self._views[server_index]

    def views(self) -> Tuple[ProtocolView, ProtocolView]:
        """Both servers' views as a ``(view_S1, view_S2)`` tuple."""
        return self._views[1], self._views[2]
