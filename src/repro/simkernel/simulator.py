"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock, the event heap, the named
RNG streams, and a trace log. All components of the reproduction share
one simulator instance, which makes every experiment a deterministic
function of ``(scenario, seed)``.

The heap holds ``(time, seq, event)`` tuples, not events: ``heapq``
then orders purely on the float/int prefix (``seq`` is unique, so the
event itself is never compared) and the dispatch loop avoids
rich-comparison dispatch on every sift. The run loop pops and fires
inline — no per-event closures or re-peeking.

Fire-and-forget callbacks (:meth:`Simulator.schedule_fire`) skip the
:class:`Event` object entirely: they sit on the heap as
``(time, seq, callback, args, label)`` 5-tuples (or 6-tuples with a
trailing ``True`` when the timer is maintenance). The unique ``seq``
guarantees comparisons never reach the heterogeneous tail, and entry
length distinguishes the shapes at dispatch. Hot cadence paths
(UPF reply delivery, app traffic ticks) use this to avoid one object
allocation per event.

Quiescence
----------
Every scheduled event is either *substantive* (default) or
*maintenance* (``maintenance=True``): a steady-state periodic timer —
connectivity probe cadence, monitor heartbeat, app keepalive — that
would re-arm itself forever. The kernel keeps an exact count of
pending substantive events; :meth:`run` accepts a ``quiesce_when``
predicate and stops as soon as the heap holds only maintenance churn
*and* the predicate confirms the model is settled. Events scheduled
from inside a maintenance callback inherit the maintenance taint by
default (``maintenance=None``), so a probe's own DNS/TCP child events
do not look substantive; anything a callback schedules explicitly as
``maintenance=False`` (or any event scheduled from substantive
context) keeps the run alive. Elided events are counted per simulator
(:attr:`elided_events`) so the speedup is auditable.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable

from repro.simkernel.events import Event, EventState
from repro.simkernel.rng import RngStreams

_PENDING = EventState.PENDING
_CANCELLED = EventState.CANCELLED
_FIRED = EventState.FIRED


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running twice, ...)."""


class Simulator:
    """Time-ordered event executor with cancellable timers.

    Parameters
    ----------
    seed:
        Master seed for the named RNG streams (see
        :class:`~repro.simkernel.rng.RngStreams`).
    trace:
        When True, every fired event is appended to :attr:`trace_log`
        as ``(time, label)``. Used by tests and by the testbed's
        signaling trace capture.
    """

    __slots__ = (
        "now", "rng", "_heap", "_seq", "_running", "_fired_count",
        "_substantive", "_maint_ctx", "elided_events", "quiesced_at",
        "trace_enabled", "trace_log",
    )

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self.now: float = 0.0
        self.rng = RngStreams(seed)
        #: (time, seq, event) triples or (time, seq, cb, args, label)
        #: fire-and-forget 5-tuples (6-tuples when maintenance); seq is
        #: unique so heap comparisons never touch the heterogeneous tail.
        self._heap: list[tuple] = []
        self._seq = 0
        self._running = False
        self._fired_count = 0
        #: Pending events that are NOT maintenance churn. Exact: kept in
        #: sync at schedule, cancel, and dispatch time.
        self._substantive = 0
        #: True while dispatching a maintenance event; maintenance=None
        #: schedules inherit this, propagating the taint to children.
        self._maint_ctx = False
        #: Pending events discarded by a quiescent stop, cumulative.
        self.elided_events = 0
        #: Simulation time of the last quiescent stop (None = none yet).
        self.quiesced_at: float | None = None
        self.trace_enabled = trace
        self.trace_log: list[tuple[float, str]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        maintenance: bool | None = None,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` seconds.

        Returns the :class:`Event`, whose ``cancel()`` method may be
        used to revoke it (the idiom for protocol timers).

        ``maintenance=True`` marks a steady-state periodic timer that
        must not keep a quiescent run alive; the default ``None``
        inherits the dispatch context (events scheduled while firing a
        maintenance event are maintenance themselves).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # Inlined schedule_at body: this is the hottest scheduling entry
        # point (millions of calls per fleet run), and the extra frame +
        # argument repacking of delegating is measurable.
        time = self.now + delay
        self._seq += 1
        if maintenance is None:
            maintenance = self._maint_ctx
        if not maintenance:
            self._substantive += 1
        event = Event(time, self._seq, callback, args, kwargs, label=label,
                      maintenance=maintenance, sim=self)
        heappush(self._heap, (time, self._seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
        maintenance: bool | None = None,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq += 1
        if maintenance is None:
            maintenance = self._maint_ctx
        if not maintenance:
            self._substantive += 1
        event = Event(time, self._seq, callback, args, kwargs, label=label,
                      maintenance=maintenance, sim=self)
        heappush(self._heap, (time, self._seq, event))
        return event

    def call_soon(
        self, callback: Callable[..., Any], *args: Any, label: str = "",
        maintenance: bool | None = None, **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at the current time (after current event)."""
        return self.schedule(0.0, callback, *args, label=label,
                             maintenance=maintenance, **kwargs)

    def schedule_fire(
        self, delay: float, callback: Callable[..., Any], *args: Any,
        label: str = "", maintenance: bool | None = None,
    ) -> None:
        """Fire-and-forget scheduling: no :class:`Event`, not cancellable.

        For hot cadence paths whose callbacks are never revoked; the
        callback sits on the heap as a bare tuple, saving one object
        allocation per event. Ordering and trace semantics are identical
        to :meth:`schedule`. Maintenance entries carry a sixth ``True``
        element so dispatch can restore the taint context.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        if maintenance is None:
            maintenance = self._maint_ctx
        if maintenance:
            heappush(self._heap,
                     (self.now + delay, self._seq, callback, args, label, True))
        else:
            self._substantive += 1
            heappush(self._heap,
                     (self.now + delay, self._seq, callback, args, label))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns False when the queue is exhausted.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            time = entry[0]
            if len(entry) == 3:
                event = entry[2]
                if event.state is _CANCELLED:
                    continue
                if time < self.now:
                    raise SimulationError("event heap corrupted: time went backwards")
                self.now = time
                if self.trace_enabled and event.label:
                    self.trace_log.append((time, event.label))
                self._fired_count += 1
                if not event.maintenance:
                    self._substantive -= 1
                self._maint_ctx = event.maintenance
                try:
                    event.fire()
                finally:
                    self._maint_ctx = False
                return True
            if time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = time
            if self.trace_enabled and entry[4]:
                self.trace_log.append((time, entry[4]))
            self._fired_count += 1
            maint = len(entry) == 6
            if not maint:
                self._substantive -= 1
            self._maint_ctx = maint
            try:
                entry[2](*entry[3])
            finally:
                self._maint_ctx = False
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        quiesce_when: Callable[[], bool] | None = None,
    ) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time. The clock is
            advanced to ``until`` even if no event lands exactly there,
            so ``sim.now`` is predictable after the call.
        max_events:
            Safety valve for tests; raise if more events fire.
        quiesce_when:
            Optional settledness predicate. Once no substantive events
            remain pending and the predicate returns True, the run
            stops early: the remaining maintenance churn is discarded
            (counted into :attr:`elided_events`) and the clock still
            advances to ``until``, so all post-run reads observe the
            same state they would at horizon end.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        heap = self._heap
        trace = self.trace_enabled
        fired = 0
        try:
            if (
                quiesce_when is not None
                and self._substantive == 0
                and quiesce_when()
            ):
                self._quiesce()
            else:
                while heap:
                    entry = heap[0]
                    event = entry[2] if len(entry) == 3 else None
                    if event is not None and event.state is _CANCELLED:
                        heappop(heap)
                        continue
                    time = entry[0]
                    if until is not None and time > until:
                        break
                    heappop(heap)
                    if time < self.now:
                        raise SimulationError("event heap corrupted: time went backwards")
                    self.now = time
                    if event is not None:
                        if trace and event.label:
                            self.trace_log.append((time, event.label))
                        # Inlined Event.fire(): the event was just popped
                        # while PENDING (cancelled ones are filtered above),
                        # so the state guard of fire() cannot trip here. The
                        # fired count is a local, folded back in finally.
                        event.state = _FIRED
                        maint = event.maintenance
                        if not maint:
                            self._substantive -= 1
                        self._maint_ctx = maint
                        kwargs = event.kwargs
                        if kwargs is not None:
                            event.callback(*event.args, **kwargs)
                        else:
                            event.callback(*event.args)
                    else:
                        if trace and entry[4]:
                            self.trace_log.append((time, entry[4]))
                        maint = len(entry) == 6
                        if not maint:
                            self._substantive -= 1
                        self._maint_ctx = maint
                        entry[2](*entry[3])
                    self._maint_ctx = False
                    fired += 1
                    if max_events is not None and fired > max_events:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    if (
                        quiesce_when is not None
                        and self._substantive == 0
                        and quiesce_when()
                    ):
                        self._quiesce()
                        break
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._maint_ctx = False
            self._fired_count += fired
            self._running = False

    def _quiesce(self) -> None:
        """Discard the remaining (maintenance-only) heap, with accounting."""
        elided = 0
        for entry in self._heap:
            if len(entry) != 3 or entry[2].state is _PENDING:
                elided += 1
        self.elided_events += elided
        self._heap.clear()
        self._substantive = 0
        self.quiesced_at = self.now

    def run_quiescent(
        self, until: float, predicate: Callable[[], bool]
    ) -> int:
        """Run to ``until`` or to quiescence, whichever comes first.

        Returns the number of events elided by this call (0 when the
        run reached ``until`` without quiescing).
        """
        before = self.elided_events
        self.run(until=until, quiesce_when=predicate)
        return self.elided_events - before

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        self.run(until=None, max_events=max_events)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(
            1 for entry in self._heap
            if len(entry) != 3 or entry[2].state is _PENDING
        )

    @property
    def substantive_pending(self) -> int:
        """Pending non-maintenance events (exact, O(1))."""
        return self._substantive

    def next_event_time(self) -> float | None:
        """Time of the next live pending event (None: heap empty).

        Cancelled entries at the head are discarded, as the run loop
        discards them, so the answer is the time :meth:`run` fires next.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 3 and entry[2].state is _CANCELLED:
                heappop(heap)
                continue
            return entry[0]
        return None

    @property
    def running(self) -> bool:
        """True inside :meth:`run` (while an event fires), False between
        runs, when every event at or before ``now`` has fired."""
        return self._running

    @property
    def fired_events(self) -> int:
        """Total number of events fired so far."""
        return self._fired_count

    def pending_labels(self) -> Iterable[str]:
        """Labels of pending events (diagnostics in tests)."""
        labels = []
        for entry in self._heap:
            if len(entry) == 3:
                event = entry[2]
                if event.state is _PENDING and event.label:
                    labels.append(event.label)
            elif entry[4]:
                labels.append(entry[4])
        return labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
