"""Pluggable message channels for the live runtime.

A channel moves opaque payloads between node ids; the runtime decides what
exists (edges, drops, discovery) and the channel decides how bytes travel:

* :class:`LoopbackChannel` -- in-process delivery into the destination's
  inbox, optionally after a seeded uniform jitter delay.  The channel only
  draws the delay: the runtime holds the frame as an entry of its one
  heap, not as a loop timer.  With ``jitter=0`` delivery is immediate and
  FIFO per sender, which is the deterministic configuration CI uses.
* :class:`UdpChannel` -- one real UDP socket per node on localhost (or a
  configurable host), JSON datagrams, asyncio datagram endpoints.  This is
  the "real network" configuration: delays, reordering and drops are
  whatever the OS gives you.

Channels never block the sender: :meth:`LiveChannel.send` is synchronous
and enqueues/transmits immediately, so effect application inside a node's
event dispatch stays atomic (no task switch mid-handler).
"""

from __future__ import annotations

import asyncio
import ipaddress
import json
import math
from typing import Any, Callable

import numpy as np

__all__ = ["ChannelError", "LiveChannel", "LoopbackChannel", "UdpChannel"]

#: Delivery callback the runtime hands to channels:
#: ``(src, dst, payload, ctx[, delay])`` where ``ctx`` is the flight span
#: id the sender attached (``None`` when tracing is off or the peer is
#: untraced) and ``delay`` the seconds the frame has still to travel
#: (default 0).
Deliver = Callable[..., None]


class ChannelError(RuntimeError):
    """Raised on channel misuse or transport setup failure."""


class LiveChannel:
    """Interface every live channel implements."""

    async def open(self, deliver: Deliver, node_ids: list[int]) -> None:
        """Bind the delivery callback and allocate transport resources."""
        raise NotImplementedError

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        ctx: int | None = None,
    ) -> None:
        """Transmit ``payload`` (and its flight span id); must not block."""
        raise NotImplementedError

    async def aclose(self) -> None:
        """Release transport resources."""
        raise NotImplementedError


class LoopbackChannel(LiveChannel):
    """In-process channel: deliver directly, or after seeded jitter.

    Parameters
    ----------
    jitter:
        Maximum extra delivery delay in seconds; each message waits a
        uniform draw from ``[0, jitter]``.  ``0`` (default) delivers
        immediately -- deterministic FIFO per directed link.
    seed:
        Seed for the jitter stream (irrelevant when ``jitter == 0``).
    """

    def __init__(self, *, jitter: float = 0.0, seed: int = 0) -> None:
        if jitter < 0.0:
            raise ChannelError(f"jitter must be >= 0; got {jitter!r}")
        self.jitter = float(jitter)
        self._rng = np.random.default_rng([seed, 0x11AE])
        self._deliver: Deliver | None = None

    async def open(self, deliver: Deliver, node_ids: list[int]) -> None:
        self._deliver = deliver

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        ctx: int | None = None,
    ) -> None:
        deliver = self._deliver
        if deliver is None:
            raise ChannelError("channel not opened")
        delay = float(self._rng.uniform(0.0, self.jitter)) if self.jitter else 0.0
        deliver(src, dst, payload, ctx, delay)

    async def aclose(self) -> None:
        self._deliver = None


class _UdpNodeProtocol(asyncio.DatagramProtocol):
    """Datagram endpoint for one node; forwards frames and their sender's
    address upward."""

    def __init__(self, channel: "UdpChannel", node_id: int) -> None:
        self._channel = channel
        self._node_id = node_id

    def datagram_received(self, data: bytes, addr: Any) -> None:
        self._channel._on_datagram(self._node_id, data, addr)

    def error_received(self, exc: Exception) -> None:
        self._channel.errors += 1


def _decode(
    data: bytes, endpoints: dict[int, Any]
) -> tuple[int, int, tuple[float, float], int | None] | None:
    """``(src, dst, payload, ctx)`` of a datagram :meth:`UdpChannel.send`
    could have written, else ``None``: a JSON object whose ``src`` and
    ``dst`` are integers in ``endpoints``, whose ``p`` is exactly two
    finite floats (JSON's ``Infinity`` and ``NaN`` parse as floats too), and
    whose ``tc``, when present, is an integer (not a bool)."""
    try:
        frame = json.loads(data)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    if not isinstance(frame, dict):
        return None
    src, dst, p, tc = frame.get("src"), frame.get("dst"), frame.get("p"), frame.get("tc")
    if type(src) is not int or type(dst) is not int:
        return None
    if src not in endpoints or dst not in endpoints:
        return None
    if not isinstance(p, list) or len(p) != 2:
        return None
    if any(type(x) is not float or not math.isfinite(x) for x in p):
        return None
    if tc is not None and type(tc) is not int:
        return None
    return src, dst, (p[0], p[1]), tc


class UdpChannel(LiveChannel):
    """One UDP socket per node; JSON datagrams over a real network stack.

    A datagram is input from outside the program: it is delivered only
    when it arrives at the socket of the ``dst`` it names, from the
    address the OS reported for the socket of the ``src`` it names, and
    is otherwise counted in ``errors``.

    Parameters
    ----------
    host:
        Interface to bind (default localhost).
    base_port:
        First port; node ``i`` binds ``base_port + i``.  ``0`` (default)
        lets the OS pick ephemeral ports -- always safe for tests.
    """

    def __init__(self, *, host: str = "127.0.0.1", base_port: int = 0) -> None:
        self.host = host
        self.base_port = int(base_port)
        self.errors = 0
        self._deliver: Deliver | None = None
        self._transports: dict[int, asyncio.DatagramTransport] = {}
        #: Each endpoint's address as the OS reported it (``sockname``; a
        #: wildcard host as the loopback address).
        self._addrs: dict[int, Any] = {}

    async def open(self, deliver: Deliver, node_ids: list[int]) -> None:
        self._deliver = deliver
        loop = asyncio.get_running_loop()
        for i in node_ids:
            port = 0 if self.base_port == 0 else self.base_port + i
            try:
                transport, _protocol = await loop.create_datagram_endpoint(
                    lambda: _UdpNodeProtocol(self, i),
                    local_addr=(self.host, port),
                )
            except OSError as exc:
                await self.aclose()
                raise ChannelError(
                    f"cannot bind UDP socket for node {i} on "
                    f"{self.host}:{port}: {exc}"
                ) from exc
            self._transports[i] = transport
            host, port, *scope = transport.get_extra_info("sockname")
            if ipaddress.ip_address(host).is_unspecified:
                # A wildcard bind: the other endpoints, all on this host,
                # reach it and hear from it through the loopback interface.
                host = "::1" if scope else "127.0.0.1"
            self._addrs[i] = (host, port, *scope)

    def _on_datagram(self, node_id: int, data: bytes, addr: Any) -> None:
        """Deliver a well-formed frame that node ``node_id``'s socket
        received from the socket of the ``src`` it names and that names
        ``node_id`` as its ``dst``; count anything else in ``errors`` (a
        late datagram after :meth:`aclose` names no open endpoint)."""
        frame = _decode(data, self._addrs)
        deliver = self._deliver
        if (
            frame is None
            or deliver is None
            or frame[1] != node_id
            or addr != self._addrs[frame[0]]
        ):
            self.errors += 1
            return
        deliver(*frame)

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        ctx: int | None = None,
    ) -> None:
        transport = self._transports.get(src)
        addr = self._addrs.get(dst)
        if transport is None or addr is None:
            raise ChannelError(f"unknown endpoint for send {src} -> {dst}")
        doc: dict[str, Any] = {"src": src, "dst": dst, "p": list(payload)}
        if ctx is not None:
            doc["tc"] = ctx
        frame = json.dumps(doc).encode("utf-8")
        transport.sendto(frame, addr)

    async def aclose(self) -> None:
        for transport in self._transports.values():
            transport.close()
        self._transports.clear()
        self._addrs.clear()
        self._deliver = None
