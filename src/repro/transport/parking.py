"""Parked exchange cadences: one protocol for the UDP, DNS and TCP clients.

An app whose exchanges the user plane can only lose (an uncleared BLOCK
failure drops them, or a DNS outage leaves its queries unanswered) and
whose failure episode can only add to counters hands its cadence to the
transport client that carries it (:meth:`Parking.park`). No tick,
exchange, timeout or retry of it is simulated until something can
change the exchanges' fate or shape; the client then *releases* the
cadence (:meth:`Parking.release`).

While parked, the eager chain is replayed on a small local heap, in
the eager chain's own float sums and order: a tick every ``interval``
(``s + interval``), a timeout per exchange (``s + timeout``), and, for
apps that retry, one failure retry ``retry_delay`` after a failure when
none is pending (``d + retry_delay``). Every read or append of the
client state the detectors and the meter use first replays the parked
events before now (:meth:`Parking.catch_up`), so those reads equal what
the eager chain would have written. A release re-arms the events still
ahead as real events, in the order the eager chain armed them, and
hands the app its tallies.

:class:`TransportClient` is what the UDP, DNS and TCP clients share: the
address their packets leave from (a change wakes the parking), the
latest deadline they armed (read through the parked cadences) and the
parking. :class:`WakeList` is the user plane's half: per-subscriber
wakes, run on any change that can alter a parked cadence's packets.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Callable

from repro.simkernel.simulator import Simulator

TICK, RETRY, TIMEOUT = 0, 1, 2


class Cadence:
    """One app's parked exchanges and the eager chain's state.

    ``tick`` and ``retry`` are the app's own callbacks, re-armed on
    release at their eager times with their labels; ``on_release``
    takes the tallies back. ``until``, if set, is the instant the
    exchanges change shape (a DNS cache expiry): the park ends there.
    The client that parks the cadence sets ``launch`` (account an
    exchange sent at a start beyond its deadline, returning its token;
    None: nothing to account), ``settle`` (account its timeout; None:
    nothing) and ``rearm`` (schedule that timeout for real).
    """

    __slots__ = ("interval", "timeout", "retry_delay", "retry_pending",
                 "tick", "tick_label", "retry", "retry_label", "on_release",
                 "until", "sent", "lost", "parking", "launch", "settle",
                 "rearm", "_until_event")

    def __init__(self, interval: float, timeout: float, retry_delay: float | None,
                 retry_pending: bool, tick: Callable[[], None], tick_label: str,
                 retry: Callable[[], None], retry_label: str,
                 on_release: Callable[["Cadence"], None],
                 until: float | None = None) -> None:
        self.interval = interval
        self.timeout = timeout
        self.retry_delay = retry_delay
        self.retry_pending = retry_pending
        self.tick = tick
        self.tick_label = tick_label
        self.retry = retry
        self.retry_label = retry_label
        self.on_release = on_release
        self.until = until
        #: Ticks and timeouts accounted while parked.
        self.sent = 0
        self.lost = 0
        #: The client's parking while parked (None: not parked).
        self.parking: Parking | None = None
        self.launch: Callable[[float], object] | None = None
        self.settle: Callable[[float, float, object], None] | None = None
        self.rearm: Callable[[float, float, object], None] | None = None
        self._until_event = None


class Parking:
    """The parked cadences of one transport client."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.cadences: list[Cadence] = []
        #: (time, seq, cadence, kind, start, token); seq keeps the order
        #: in which the eager chain would have armed the events.
        self._heap: list[tuple] = []
        self._seq = 0
        #: Latest timeout the replay armed (the client's ``deadline``
        #: reads the larger of this and its own).
        self.armed = 0.0
        #: No cadence parks while the clock is at or before this.
        self.hold_until = -math.inf

    # ------------------------------------------------------------------
    def park(self, cadence: Cadence, user_plane, src_ip: str, protocol,
             dst_ip: str = "") -> bool:
        """Park ``cadence`` after the tick that sent its latest exchange.

        Parks only when the user plane promises to call :meth:`wake` on
        any change to the fate of the cadence's packets
        (``user_plane.park``). The next tick is ``interval`` from now;
        the exchange just sent stays real, and its outcome reaches the
        cadence through :meth:`fail`. The caller binds the cadence's
        accounting (``launch``, ``settle``, ``rearm``) once it parked:
        nothing of it is replayed before the next tick.
        """
        sim = self.sim
        now = sim.now
        if now <= self.hold_until or not user_plane.park(
                src_ip, protocol, self.wake, dst_ip):
            return False
        self.sync()
        self.cadences.append(cadence)
        cadence.parking = self
        self._push(now + cadence.interval, cadence, TICK, 0.0, None)
        if cadence.until is not None:
            cadence._until_event = sim.schedule_at(
                cadence.until, self.release, cadence,
                label="park:until", maintenance=True)
        return True

    def _push(self, time: float, cadence: Cadence, kind: int, start: float,
              token) -> None:
        self._seq += 1
        heappush(self._heap, (time, self._seq, cadence, kind, start, token))

    def _launch(self, cadence: Cadence, start: float) -> None:
        launch = cadence.launch
        token = launch(start) if launch is not None else None
        end = start + cadence.timeout
        if end > self.armed:
            self.armed = end
        self._push(end, cadence, TIMEOUT, start, token)

    def _failed(self, cadence: Cadence, time: float) -> None:
        cadence.lost += 1
        delay = cadence.retry_delay
        if delay is not None and not cadence.retry_pending:
            cadence.retry_pending = True
            self._push(time + delay, cadence, RETRY, 0.0, None)

    def sync(self) -> None:
        """Account the parked events fired by now: inside a run those
        before ``now`` (one at exactly ``now`` would fire after the
        event running, see DESIGN.md section 10), between runs those at
        or before it."""
        if self.cadences:
            self.catch_up(self._bound())

    def _bound(self) -> float:
        sim = self.sim
        return sim.now if sim.running else math.nextafter(sim.now, math.inf)

    def catch_up(self, until: float) -> None:
        """Replay the parked events the eager chain fires before
        ``until``: :meth:`_launch` and :meth:`_failed`, inlined."""
        heap = self._heap
        if not heap or heap[0][0] >= until:
            return
        seq = self._seq
        armed = self.armed
        while heap and heap[0][0] < until:
            time, _seq, cadence, kind, start, token = heappop(heap)
            if kind == TIMEOUT:
                settle = cadence.settle
                if settle is not None:
                    settle(start, time, token)
                cadence.lost += 1
                delay = cadence.retry_delay
                if delay is not None and not cadence.retry_pending:
                    cadence.retry_pending = True
                    seq += 1
                    heappush(heap, (time + delay, seq, cadence, RETRY, 0.0, None))
                continue
            if kind == TICK:
                cadence.sent += 1
            else:
                cadence.retry_pending = False
            launch = cadence.launch
            end = time + cadence.timeout
            if end > armed:
                armed = end
            seq += 1
            heappush(heap, (end, seq, cadence, TIMEOUT, time,
                            launch(time) if launch is not None else None))
            if kind == TICK:
                seq += 1
                heappush(heap, (time + cadence.interval, seq, cadence, TICK, 0.0, None))
        self._seq = seq
        self.armed = armed

    # -- real events of a parked app --------------------------------------
    def fail(self, cadence: Cadence) -> None:
        """An exchange the app sent before parking failed now."""
        self.sync()
        self._failed(cadence, self.sim.now)

    def retry(self, cadence: Cadence) -> None:
        """A failure retry armed before parking fires now."""
        self.sync()
        cadence.retry_pending = False
        self._launch(cadence, self.sim.now)

    # -- ending parks ------------------------------------------------------
    def wake(self) -> None:
        """Release every parked cadence (see :meth:`release`)."""
        while self.cadences:
            self.release(self.cadences[0])

    def hold(self, until: float) -> None:
        """Release every cadence and park none until the clock is past
        ``until``."""
        if until > self.hold_until:
            self.hold_until = until
        self.wake()

    def release(self, cadence: Cadence, rearm: bool = True,
                at: float | None = None) -> None:
        """End ``cadence``'s park now (a no-op if it is not parked).

        Accounts its events before now, re-arms the rest as real events
        in the order the eager chain armed them (timeouts through the
        client, the tick and retry through the app), and hands the app
        its tallies. ``rearm=False`` accounts up to ``at`` instead and
        drops the rest: a run that stopped there.
        """
        if cadence.parking is not self:
            return
        sim = self.sim
        self.catch_up(self._bound() if at is None else at)
        self.cadences.remove(cadence)
        cadence.parking = None
        if cadence._until_event is not None:
            cadence._until_event.cancel()
            cadence._until_event = None
        heap = self._heap
        ahead = [entry for entry in heap if entry[2] is cadence]
        if ahead:
            heap[:] = [entry for entry in heap if entry[2] is not cadence]
            heapify(heap)
        if rearm:
            ahead.sort(key=lambda entry: entry[1])
            for time, _seq, _cadence, kind, start, token in ahead:
                if kind == TIMEOUT:
                    cadence.rearm(start, time, token)
                elif kind == TICK:
                    sim.schedule_at(time, cadence.tick, label=cadence.tick_label,
                                    maintenance=True)
                else:
                    sim.schedule_at(time, cadence.retry, label=cadence.retry_label,
                                    maintenance=True)
        cadence.on_release(cadence)

    def freeze(self, at: float) -> None:
        """Account every cadence up to ``at`` and end its park without
        re-arming anything: the run stopped at ``at``."""
        while self.cadences:
            self.release(self.cadences[0], rearm=False, at=at)


class TransportClient:
    """A transport client's source address, latest timeout deadline and
    parked cadences. A subclass raises ``_deadline`` as it arms each
    timeout, and accounts ``parking`` before every read or append of
    the state it keeps."""

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        self.sim = sim
        self.user_plane = user_plane
        self._device_ip = device_ip
        self._deadline = 0.0
        self.parking = Parking(sim)

    @property
    def deadline(self) -> float:
        """Latest timeout deadline armed so far (0.0: none). Every
        exchange launched up to now has resolved once the clock is past
        it."""
        parking = self.parking
        if parking.cadences:
            parking.sync()
        return max(self._deadline, parking.armed)

    @property
    def device_ip(self) -> str:
        return self._device_ip

    @device_ip.setter
    def device_ip(self, ip: str) -> None:
        changed = ip != self._device_ip
        self._device_ip = ip
        if changed:
            self.parking.wake()  # a new source address can meet another fate


class WakeList:
    """Per-subscriber wakes of parked cadences, each run once."""

    def __init__(self) -> None:
        self._wakes: dict[str, list[Callable[[], None]]] = {}

    def add(self, key: str, wake: Callable[[], None]) -> None:
        wakes = self._wakes.setdefault(key, [])
        if wake not in wakes:
            wakes.append(wake)

    def run(self, key: str) -> None:
        for wake in self._wakes.pop(key, ()):
            wake()

    def run_all(self) -> None:
        for key in list(self._wakes):
            self.run(key)
