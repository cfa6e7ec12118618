"""Neighbour-estimate bookkeeping (the sets Gamma and the per-neighbour vars).

Algorithm 2 keeps, per node ``u``:

* ``Upsilon_u`` -- nodes ``u`` believes it has an edge to (owned by the node
  class as a plain set);
* ``Gamma_u subseteq Upsilon_u`` -- nodes heard from within the last
  ``Delta T'`` subjective units; **only these constrain the logical clock**;
* ``C^v_u`` -- ``u``'s hardware reading when ``v`` last *entered* Gamma
  (drives the edge-age argument of the ``B`` function);
* ``L^v_u`` -- ``u``'s running estimate of ``v``'s logical clock, advanced at
  ``u``'s hardware rate between messages and refreshed on every receipt
  (Lemma 6.5's contract).

:class:`NeighborTable` packages Gamma with its per-neighbour variables.  The
estimate values are lazy in the same sense as the node's ``L``: the owning
node calls :meth:`advance` from its ``_sync`` with the elapsed subjective
time ``dh``.

A node covered by the batch table (:mod:`repro.core.batch`) keeps no rows
of its own: its Gamma is a :class:`SlotTable`, the same interface over the
table's per-slot columns, where ``L^v_u = +inf`` *is* "``v`` not in
Gamma" (the identity of AdjustClock's ``min``), and its Upsilon a
:class:`SlotSet` over the ``ups`` column.
"""

from __future__ import annotations

from collections.abc import MutableSet
from math import inf
from typing import Any, Iterator

__all__ = ["NeighborEstimate", "NeighborTable", "SlotEstimate", "SlotSet", "SlotTable"]


class NeighborEstimate:
    """Per-tracked-neighbour state (one row of the Gamma table)."""

    __slots__ = ("added_h", "l_est")

    def __init__(self, added_h: float, l_est: float) -> None:
        #: Owner's hardware reading when the neighbour entered Gamma (C^v_u).
        self.added_h = added_h
        #: Estimate of the neighbour's logical clock (L^v_u), lazy.
        self.l_est = l_est

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NeighborEstimate(added_h={self.added_h!r}, l_est={self.l_est!r})"


class NeighborTable:
    """The set Gamma with per-neighbour variables ``C^v_u`` and ``L^v_u``."""

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: dict[int, NeighborEstimate] = {}

    def __contains__(self, v: int) -> bool:
        return v in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def items(self) -> Iterator[tuple[int, NeighborEstimate]]:
        """Iterate ``(neighbour id, estimate row)`` pairs."""
        return iter(self._rows.items())

    def rows(self) -> Iterator[NeighborEstimate]:
        """Iterate estimate rows without keys (insertion order; hot path)."""
        return iter(self._rows.values())

    def get(self, v: int) -> NeighborEstimate | None:
        """Row for ``v`` or ``None``."""
        return self._rows.get(v)

    def add(self, v: int, added_h: float, l_est: float) -> None:
        """Insert ``v`` into Gamma, recording ``C^v_u = added_h``.

        Pseudocode lines 17--20: only called when ``v`` is *not* in Gamma;
        re-adding an existing row would clobber ``C^v_u`` and violate
        Lemma 6.10's bookkeeping, so it raises.
        """
        if v in self._rows:
            raise ValueError(f"neighbour {v!r} already tracked")
        self._rows[v] = NeighborEstimate(added_h, l_est)

    def refresh(self, v: int, l_est: float) -> None:
        """Refresh ``L^v_u`` from a newly received message.

        FIFO delivery makes the newest message carry the largest logical
        value the node has seen from ``v``, but drift asymmetry can make the
        locally-advanced estimate exceed the fresh report; the estimate is
        monotone (an estimate may only move forward) to keep Lemma 6.5's
        guarantee ``L^v_u(t) >= L_v(t - tau)``.
        """
        row = self._rows.get(v)
        if row is None:
            raise KeyError(f"neighbour {v!r} not tracked")
        if l_est > row.l_est:
            row.l_est = l_est

    def remove(self, v: int) -> bool:
        """Drop ``v`` from Gamma (returns whether it was present)."""
        return self._rows.pop(v, None) is not None

    def advance(self, dh: float) -> None:
        """Advance every ``L^v_u`` by ``dh`` (owner's subjective elapsed time)."""
        for row in self._rows.values():
            row.l_est += dh

    def clear(self) -> None:
        """Drop every row."""
        self._rows.clear()


class SlotEstimate:
    """One Gamma row of a table-covered node: slot ``slot`` of ``store``'s
    ``added_h`` / ``l_est`` columns, read and written in place."""

    __slots__ = ("_store", "_slot")

    def __init__(self, store: Any, slot: int) -> None:
        self._store = store
        self._slot = slot

    @property
    def added_h(self) -> float:
        return self._store.added_h[self._slot]  # type: ignore[no-any-return]

    @property
    def l_est(self) -> float:
        return self._store.l_est[self._slot]  # type: ignore[no-any-return]

    @l_est.setter
    def l_est(self, value: float) -> None:
        self._store.l_est[self._slot] = value


class SlotTable(NeighborTable):
    """Gamma of a table-covered node ``owner``: :class:`NeighborTable`'s
    interface as a view of ``store``'s slot columns (nothing is copied;
    every read shows the run as it stands)."""

    __slots__ = ("_store", "_owner")

    def __init__(self, store: Any, owner: int) -> None:
        self._store = store
        self._owner = owner

    @property
    def _rows(self) -> dict[int, SlotEstimate]:  # type: ignore[override]
        store = self._store
        l_est = store.l_est
        return {
            v: SlotEstimate(store, s)
            for v, s in store.slotmap[self._owner].items()
            if l_est[s] != inf
        }

    def add(self, v: int, added_h: float, l_est: float) -> None:
        if v in self:
            raise ValueError(f"neighbour {v!r} already tracked")
        store = self._store
        slot = store.slot(self._owner, v)
        store.added_h[slot] = added_h
        store.l_est[slot] = l_est

    def remove(self, v: int) -> bool:
        return self._store.forget(self._owner, v)  # type: ignore[no-any-return]

    def clear(self) -> None:
        for v in list(self._rows):
            self.remove(v)


class SlotSet(MutableSet[int]):
    """Upsilon of a table-covered node ``owner``: a set of node ids as a
    view of ``store``'s ``ups`` column (reads show the run as it stands;
    ``add`` / ``discard`` write the column)."""

    __slots__ = ("_store", "_owner")

    def __init__(self, store: Any, owner: int) -> None:
        self._store = store
        self._owner = owner

    def __contains__(self, v: object) -> bool:
        return v in self._store.believed(self._owner)

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.believed(self._owner))

    def __len__(self) -> int:
        return len(self._store.believed(self._owner))

    def add(self, v: int) -> None:
        self._store.believe(self._owner, v, True)

    def discard(self, v: int) -> None:
        self._store.believe(self._owner, v, False)
