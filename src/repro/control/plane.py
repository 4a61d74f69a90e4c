"""Control-plane transports: instant (direct-call) and rpc (modeled).

A :class:`ControlPlane` carries every driver↔worker message of one
simulation run.  The engine hands each ``send`` a *deliver* callback —
the receiver-side action — and the plane decides when to invoke it:

* :class:`InstantControlPlane` — today's direct-call semantics: every
  message is delivered synchronously at its send time, in send order.
  Its delivery heap is permanently empty, so the engine's hot-loop peek
  costs one truthiness check and nothing else.  It is *synchronous*
  (:attr:`ControlPlane.synchronous`), which lets the engine skip
  building messages nobody can observe in flight (see below).
* :class:`RpcControlPlane` — delivery is delayed by the configured
  latency (defaulting to the cluster :class:`NetworkModel`'s
  latency-dominated ``message_time``) plus optional per-message jitter,
  and messages can be lost outright (config loss rate, or a
  :class:`~repro.simulator.failures.ControlOutage` window installed by
  the engine).  Jitter is also the reordering knob: two messages sent
  back-to-back may land out of order; ties on delivery time break by
  send sequence.

Receiver callbacks return ``True`` when the message turned out to be
*stale* on arrival (a purge for a resurrected RDD, a prefetch landing
after its stage, an out-of-date table broadcast); the plane aggregates
that into :class:`ControlPlaneStats` alongside message counts and the
order-to-apply delay.

Synchronous stage boundaries
----------------------------
Two kinds of per-boundary traffic carry nothing a synchronous plane can
observe: the workers' cache-status reports (the driver plans against
exactly the live state the reports would carry) and the distance-table
broadcast (every worker applies it at send time, in node order).  Under
a synchronous plane the engine therefore builds neither message: it
skips the reports — the MRD manager falls back to live free memory —
and applies the table with one direct call per live node.
:meth:`ControlPlane.deliver_direct` books those deliveries, so ``sent``,
``delivered`` and ``stale_orders`` count exactly what the messages
would have.  The rpc plane still sends and delivers every message.

Determinism: the loss/jitter RNG is seeded and consumed in send order,
and draws are skipped entirely when the corresponding knob is zero — so
an rpc plane with zero latency, jitter, and loss reproduces the instant
plane's behavior exactly.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.network import NetworkModel
from repro.control.messages import ControlMessage
from repro.trace.events import MessageDeliver, MessageDrop, MessageSend
from repro.trace.recorder import NULL_RECORDER, TraceRecorder

#: Receiver-side action; returns True when the message was stale on arrival.
DeliverFn = Callable[[ControlMessage, float], bool]

#: Control-plane transports understood by the engine.
CONTROL_PLANES = ("instant", "rpc")


@dataclass(frozen=True)
class RpcConfig:
    """Tunable knobs of the rpc control plane.

    ``latency_s``: fixed one-way message latency; ``None`` derives it
    from the cluster's :class:`NetworkModel` via ``message_time``.
    ``jitter_s``: per-message uniform extra delay in ``[0, jitter_s]``
    (also enables reordering).
    ``loss_rate``: probability a message is silently dropped.
    ``message_kb``: assumed control-message size for the derived latency.
    ``seed``: RNG seed for loss and jitter draws.
    """

    latency_s: float | None = None
    jitter_s: float = 0.0
    loss_rate: float = 0.0
    message_kb: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency_s is not None and self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.jitter_s < 0:
            raise ValueError("jitter_s must be non-negative")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if self.message_kb < 0:
            raise ValueError("message_kb must be non-negative")


@dataclass
class ControlPlaneStats:
    """Control-traffic counters for one run (part of RunMetrics)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    #: Orders (purge/prefetch) and broadcasts that were out of date on
    #: arrival, as judged by the receiver.
    stale_orders: int = 0
    #: Purge/prefetch orders that reached their worker.
    orders_applied: int = 0
    #: Sum of (apply time - send time) over applied orders.
    order_delay_total: float = 0.0

    @property
    def mean_order_delay(self) -> float:
        """Mean send→apply delay of delivered orders (0.0 with none)."""
        if not self.orders_applied:
            return 0.0
        return self.order_delay_total / self.orders_applied

    def summary(self) -> str:
        return (
            f"msgs {self.delivered}/{self.sent} delivered "
            f"({self.dropped} dropped) | "
            f"order delay {self.mean_order_delay * 1e3:.1f} ms | "
            f"stale {self.stale_orders}"
        )


class ControlPlane:
    """Transport interface the engine threads every coordination through."""

    name = "control"
    #: Whether this plane emits msg_send/msg_deliver/msg_drop trace
    #: events (instant does not: direct calls have no messages).
    trace_messages = False
    #: Whether every message is delivered at its send time, in send
    #: order (instant).  The engine then skips building messages whose
    #: delivery nothing can observe and books them via deliver_direct.
    synchronous = False

    def __init__(self) -> None:
        self.stats = ControlPlaneStats()
        #: Event sink; the engine installs the live recorder per run.
        self.recorder: TraceRecorder = NULL_RECORDER
        #: Pending deliveries ``(deliver_at, send_seq, msg, deliver)``.
        #: The engine peeks this directly on its hot path; the instant
        #: plane keeps it permanently empty.
        self.heap: list[tuple[float, int, ControlMessage, DeliverFn]] = []
        #: Extra loss probability hook (failure-plan outage windows).
        self.outage_loss: Callable[[ControlMessage], float] | None = None

    def send(self, msg: ControlMessage, deliver: DeliverFn) -> None:
        """Enqueue (or directly apply) one message."""
        raise NotImplementedError

    def send_local(self, msg: ControlMessage, deliver: DeliverFn) -> None:
        """Bootstrap path: always-synchronous delivery, even under rpc.

        Initial worker registration happens before the application clock
        starts (Spark blocks on executor registration), so it bypasses
        the modeled network on every plane.
        """
        self.stats.sent += 1
        self._finish(msg, deliver, msg.sent_at)

    def deliver_direct(self, count: int, stale: int = 0) -> None:
        """Book ``count`` non-order messages the engine applied directly
        instead of sending, ``stale`` of them stale on arrival.

        Only a synchronous plane may skip sending: the counters then
        match what ``send`` would have booked for the same messages.
        """
        assert self.synchronous, "only a synchronous plane delivers directly"
        st = self.stats
        st.sent += count
        st.delivered += count
        st.stale_orders += stale

    def pump(self, t: float) -> None:
        """Deliver every pending message due at or before ``t``."""

    def reset(self) -> None:
        """Fresh per-run state (the engine builds one plane per run)."""
        self.stats = ControlPlaneStats()
        self.heap.clear()

    # ------------------------------------------------------------------
    def _finish(self, msg: ControlMessage, deliver: DeliverFn, at: float) -> None:
        """Invoke the receiver and account the delivery."""
        stale = bool(deliver(msg, at))
        st = self.stats
        st.delivered += 1
        if msg.is_order:
            st.orders_applied += 1
            st.order_delay_total += at - msg.sent_at
        if stale:
            st.stale_orders += 1
        rec = self.recorder
        if self.trace_messages and rec.enabled:
            rec.emit(MessageDeliver(
                t=at, msg=msg.kind, node_id=msg.node_id,
                sent_at=msg.sent_at, stale=stale,
            ))


class InstantControlPlane(ControlPlane):
    """Direct-call semantics: synchronous delivery in send order."""

    name = "instant"
    synchronous = True

    def send(self, msg: ControlMessage, deliver: DeliverFn) -> None:
        self.stats.sent += 1
        self._finish(msg, deliver, msg.sent_at)


class RpcControlPlane(ControlPlane):
    """Latency/loss/jitter-modeled delivery via a time-ordered heap."""

    name = "rpc"
    trace_messages = True

    def __init__(
        self,
        config: RpcConfig | None = None,
        network: NetworkModel | None = None,
    ) -> None:
        super().__init__()
        self.config = config or RpcConfig()
        self.latency_s = (
            self.config.latency_s if self.config.latency_s is not None
            else (network or NetworkModel()).message_time(self.config.message_kb)
        )
        self._rng = random.Random(self.config.seed)
        self._seq = 0

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.config.seed)
        self._seq = 0

    def send(self, msg: ControlMessage, deliver: DeliverFn) -> None:
        st = self.stats
        st.sent += 1
        loss = self.config.loss_rate
        if self.outage_loss is not None:
            loss = max(loss, self.outage_loss(msg))
        # RNG draws only happen for nonzero knobs, so a zero-loss,
        # zero-jitter rpc plane is draw-for-draw deterministic and
        # behaviourally identical to the instant plane at latency 0.
        if loss > 0.0 and self._rng.random() < loss:
            st.dropped += 1
            rec = self.recorder
            if rec.enabled:
                rec.emit(MessageDrop(
                    t=msg.sent_at, msg=msg.kind, node_id=msg.node_id,
                    reason="outage" if loss > self.config.loss_rate else "loss",
                ))
            return
        delay = self.latency_s
        if self.config.jitter_s > 0.0:
            delay += self._rng.uniform(0.0, self.config.jitter_s)
        deliver_at = msg.sent_at + delay
        self._seq += 1
        heapq.heappush(self.heap, (deliver_at, self._seq, msg, deliver))
        rec = self.recorder
        if rec.enabled:
            rec.emit(MessageSend(
                t=msg.sent_at, msg=msg.kind, node_id=msg.node_id,
                deliver_at=deliver_at,
            ))

    def pump(self, t: float) -> None:
        heap = self.heap
        while heap and heap[0][0] <= t:
            deliver_at, _, msg, deliver = heapq.heappop(heap)
            self._finish(msg, deliver, deliver_at)


def build_control_plane(
    control_plane: str,
    config: RpcConfig | None = None,
    network: NetworkModel | None = None,
) -> ControlPlane:
    """Plane instance for a transport name (engine construction helper)."""
    if control_plane == "instant":
        return InstantControlPlane()
    if control_plane == "rpc":
        return RpcControlPlane(config=config, network=network)
    raise ValueError(
        f"control_plane must be one of {CONTROL_PLANES}, got {control_plane!r}"
    )
