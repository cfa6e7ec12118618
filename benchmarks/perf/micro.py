"""Isolated micro pass: ns/op per layer, with a noise estimate.

Each number is the median of ``BLOCKS`` timed blocks of at least
``MIN_BLOCK_S`` each, with IQR / median recorded beside it.  The cyclic
collector is off throughout, as it is inside ``Experiment.run``.  The three
queue depths answer why scalar throughput falls as ``n`` grows (the heap is
~3n deep); the envelope round trip prices one cross-shard message.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import random
import statistics
import time
from multiprocessing.connection import Connection
from typing import Any, Callable

import numpy as np

from repro.core.bfunction import BFunction
from repro.core.protocol import (
    DCSACore,
    DiscoverAdd,
    JumpL,
    MessageReceived,
    Start,
    TimerFired,
)
from repro.harness import configs
from repro.harness.runner import Experiment
from repro.params import SystemParams
from repro.sim.events import KIND_DELIVER, PRIORITY_DELIVERY
from repro.sim.queue import EventQueue

BLOCKS = 7
MIN_BLOCK_S = 0.05

#: A block runs ``iters`` iterations and returns the seconds it timed
#: (it times itself, so refills between timed parts stay outside).
Block = Callable[[int], float]


def bench(block: Block, ops_per_iter: int = 1) -> tuple[float, float]:
    """``(median ns/op, IQR / median)`` over ``BLOCKS`` calibrated blocks."""
    iters = 1
    while block(iters) < MIN_BLOCK_S:
        iters *= 2
    samples = [
        block(iters) / (iters * ops_per_iter) * 1e9 for _ in range(BLOCKS)
    ]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, (q3 - q1) / median


def _timed_loop(body: Callable[[int], None]) -> Block:
    """A block that times ``body(i)`` for ``i`` in ``range(iters)``."""

    def block(iters: int) -> float:
        t0 = time.perf_counter()
        for i in range(iters):
            body(i)
        return time.perf_counter() - t0

    return block


# ---------------------------------------------------------------------- #
# sim.queue
# ---------------------------------------------------------------------- #


def queue_push_pop(depth: int) -> Block:
    """Steady-state pop-min + push at a constant live depth (hold model)."""
    rng = random.Random(depth)
    queue = EventQueue()
    for _ in range(depth):
        queue.push_typed(rng.random(), PRIORITY_DELIVERY, KIND_DELIVER)
    increments = [2.0 * rng.random() for _ in range(1024)]
    pop, push, recycle = queue.pop_until, queue.push_typed, queue.recycle

    def body(i: int) -> None:
        ev = pop(math.inf)
        assert ev is not None
        t = ev.time
        recycle(ev)
        push(t + increments[i & 1023], PRIORITY_DELIVERY, KIND_DELIVER)

    return _timed_loop(body)


RUN_LENGTH = 1024


def queue_pop_run() -> Block:
    """``pop_run`` over a run of ``RUN_LENGTH`` same-key records."""
    queue = EventQueue()
    buf: list[Any] = []

    def block(iters: int) -> float:
        elapsed = 0.0
        for i in range(iters):
            for _ in range(RUN_LENGTH):
                queue.push_typed(float(i), PRIORITY_DELIVERY, KIND_DELIVER)
            t0 = time.perf_counter()
            first = queue.pop_until(math.inf)
            assert first is not None
            count = queue.pop_run(first, buf)
            elapsed += time.perf_counter() - t0
            assert count == RUN_LENGTH
            queue.recycle_all(buf)
            buf.clear()
        return elapsed

    return block


# ---------------------------------------------------------------------- #
# core.protocol / core.bfunction
# ---------------------------------------------------------------------- #


def _core_with_neighbours(k: int) -> tuple[DCSACore, SystemParams]:
    params = SystemParams.for_network(64)
    core = DCSACore(0, params)
    core.handle(0.0, Start())
    for v in range(1, k + 1):
        core.handle(0.0, DiscoverAdd(v))
    return core, params


def _apply_jumps(core: DCSACore, effects: list[Any]) -> None:
    for eff in effects:
        if type(eff) is JumpL:
            core.apply_jump(eff.new_value)


def protocol_handle_message(k: int) -> Block:
    """``DCSACore.handle(MessageReceived)`` with ``k`` tracked neighbours,
    each heard once per tick interval."""
    core, params = _core_with_neighbours(k)
    dh = params.tick_interval / k
    state = {"h": 0.0}

    def body(i: int) -> None:
        h = state["h"] = state["h"] + dh
        effects = core.handle(h, MessageReceived(1 + i % k, (h - 0.01, h)))
        _apply_jumps(core, effects)

    return _timed_loop(body)


def protocol_handle_tick(k: int) -> Block:
    """``DCSACore.handle(TimerFired("tick"))`` with ``k`` believed neighbours."""
    core, params = _core_with_neighbours(k)
    dh = params.tick_interval
    state = {"h": 0.0}

    def body(_i: int) -> None:
        h = state["h"] = state["h"] + dh
        _apply_jumps(core, core.handle(h, TimerFired("tick")))

    return _timed_loop(body)


EVALUATE_ELEMS = 4096


def bfunction_call() -> Block:
    b = BFunction.from_params(SystemParams.for_network(64))
    ages = [b.settle_age * 1.5 * i / 1024 for i in range(1024)]
    return _timed_loop(lambda i: b(ages[i & 1023]))


def bfunction_evaluate() -> Block:
    b = BFunction.from_params(SystemParams.for_network(64))
    ages = np.linspace(0.0, b.settle_age * 1.5, EVALUATE_ELEMS)
    return _timed_loop(lambda _i: b.evaluate(ages))


# ---------------------------------------------------------------------- #
# oracle
# ---------------------------------------------------------------------- #

ORACLE_N = 4096


def oracle_sample(table_path: bool) -> Block:
    """One ``StreamingOracle.sample`` over ``ORACLE_N`` nodes.

    The drifting ring is sampled through per-node reader calls, the sync
    ring through the batch kernel's dense columns (its gate must be open).
    """
    factory = configs.huge_sync_ring if table_path else configs.huge_ring
    exp = Experiment(factory(ORACLE_N, horizon=1.0, seed=0))
    result = exp.run()
    assert (result.batch_gate_reason is None) or not table_path
    oracle = exp.oracle
    assert oracle is not None
    state = {"t": 1.0}

    def body(_i: int) -> None:
        t = state["t"] = state["t"] + 0.01
        oracle.sample(t)

    return _timed_loop(body)


# ---------------------------------------------------------------------- #
# sim.par
# ---------------------------------------------------------------------- #

ENVELOPE_BATCH = 1000


def _echo(conn: Connection) -> None:
    while (msg := conn.recv()) is not None:
        conn.send(msg)
    conn.close()


def par_envelope_roundtrip() -> tuple[float, float]:
    """Pickle + ``Pipe`` send/recv per envelope, there and back, in
    batches of ``ENVELOPE_BATCH`` -- one barrier's worth of traffic
    through the same fork-context duplex pipe ``run_par`` uses."""
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=_echo, args=(child,), daemon=True)
    proc.start()
    child.close()
    batch = [
        (1.5 + i * 1e-3, (1.0, 2, 0.5, 1, i), i, i + 1, (12.5, 13.0), 1.0)
        for i in range(ENVELOPE_BATCH)
    ]

    def body(_i: int) -> None:
        parent.send(batch)
        parent.recv()

    try:
        return bench(_timed_loop(body), ENVELOPE_BATCH)
    finally:
        parent.send(None)
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        parent.close()


def run_micro() -> dict[str, Any]:
    """Run every microbenchmark; ``metrics`` in ns, ``noise`` = IQR/median."""
    results = {
        "micro.sim.queue.push_pop_ns.d1k": bench(queue_push_pop(1 << 10)),
        "micro.sim.queue.push_pop_ns.d16k": bench(queue_push_pop(1 << 14)),
        "micro.sim.queue.push_pop_ns.d256k": bench(queue_push_pop(1 << 18)),
        "micro.sim.queue.pop_run_ns_per_record": bench(queue_pop_run(), RUN_LENGTH),
        "micro.core.protocol.handle_message_ns.k2": bench(protocol_handle_message(2)),
        "micro.core.protocol.handle_message_ns.k4": bench(protocol_handle_message(4)),
        "micro.core.protocol.handle_tick_ns.k2": bench(protocol_handle_tick(2)),
        "micro.core.protocol.handle_tick_ns.k4": bench(protocol_handle_tick(4)),
        "micro.core.bfunction.call_ns": bench(bfunction_call()),
        "micro.core.bfunction.evaluate_ns_per_elem": bench(
            bfunction_evaluate(), EVALUATE_ELEMS
        ),
        "micro.oracle.sample_ns_per_node.reader": bench(oracle_sample(False), ORACLE_N),
        "micro.oracle.sample_ns_per_node.table": bench(oracle_sample(True), ORACLE_N),
        "micro.sim.par.envelope_roundtrip_ns": par_envelope_roundtrip(),
    }
    return {
        "blocks": BLOCKS,
        "min_block_s": MIN_BLOCK_S,
        "metrics": {name: median for name, (median, _noise) in results.items()},
        "noise": {name: noise for name, (_median, noise) in results.items()},
    }


if __name__ == "__main__":
    gc.disable()
    print(json.dumps(run_micro()))
