"""Network management system metrics (Magma NMS role).

The SEED infra assistance "acquires ... extra information such as
RAN/core load from Magma NMS" (§6) to emit congestion warnings. The
NMS tracks per-component load as exponentially-smoothed rates and
exposes congestion checks with configurable thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simkernel.simulator import Simulator


@dataclass
class LoadGauge:
    """Exponentially-decayed event-rate gauge (events/second)."""

    half_life: float = 10.0
    rate: float = 0.0
    _last_update: float = 0.0

    def bump(self, now: float, weight: float = 1.0) -> None:
        self._decay(now)
        # An arrival adds 1/half_life to the smoothed rate estimate.
        self.rate += weight / self.half_life

    def value(self, now: float) -> float:
        self._decay(now)
        return self.rate

    def _decay(self, now: float) -> None:
        dt = now - self._last_update
        if dt > 0:
            self.rate *= 0.5 ** (dt / self.half_life)
            self._last_update = now


class Nms:
    """Per-component load gauges plus congestion thresholds.

    Per-UE isolation: a SUPI registered through :meth:`isolate` gets its
    own pair of gauges and its own forced-congestion pin, so one UE's
    load (or a scenario's forced congestion) never leaks into another
    UE's view. Other SUPIs, and calls without a ``supi``, share the
    global gauges (cores built directly, as in unit tests).
    """

    def __init__(
        self,
        sim: Simulator,
        ran_congestion_threshold: float = 50.0,
        core_congestion_threshold: float = 80.0,
    ) -> None:
        self.sim = sim
        self.ran_load = LoadGauge()
        self.core_load = LoadGauge()
        self.ran_congestion_threshold = ran_congestion_threshold
        self.core_congestion_threshold = core_congestion_threshold
        self.events: list[tuple[float, str]] = []
        self._forced_congestion: str | None = None
        self._ue_ran: dict[str, LoadGauge] = {}
        self._ue_core: dict[str, LoadGauge] = {}
        self._ue_forced: dict[str, str | None] = {}

    def isolate(self, supi: str) -> None:
        """Give ``supi`` private gauges + congestion state from now on."""
        self._ue_ran[supi] = LoadGauge()
        self._ue_core[supi] = LoadGauge()
        self._ue_forced[supi] = None

    def note_ran_event(self, weight: float = 1.0, supi: str = "") -> None:
        self._ue_ran.get(supi, self.ran_load).bump(self.sim.now, weight)

    def note_core_event(self, weight: float = 1.0, supi: str = "") -> None:
        self._ue_core.get(supi, self.core_load).bump(self.sim.now, weight)

    def force_congestion(self, which: str | None, supi: str = "") -> None:
        """Test/scenario hook: pin congestion state ('ran'/'core'/None)."""
        if supi in self._ue_forced:
            self._ue_forced[supi] = which
        else:
            self._forced_congestion = which

    def congested(self, supi: str = "") -> str | None:
        """Return 'ran', 'core', or None."""
        if supi in self._ue_forced:
            forced = self._ue_forced[supi]
            core, ran = self._ue_core[supi], self._ue_ran[supi]
        else:
            forced = self._forced_congestion
            core, ran = self.core_load, self.ran_load
        if forced is not None:
            return forced
        if core.value(self.sim.now) > self.core_congestion_threshold:
            return "core"
        if ran.value(self.sim.now) > self.ran_congestion_threshold:
            return "ran"
        return None

    def suggested_backoff(self, supi: str = "") -> float:
        """Backoff timer embedded in congestion warnings (§5.2)."""
        which = self.congested(supi)
        if which == "core":
            return 10.0
        if which == "ran":
            return 5.0
        return 0.0

    def log(self, message: str) -> None:
        self.events.append((self.sim.now, message))


class ScopedNms:
    """Per-UE facade binding every NMS call to one SUPI (a harness UE's view)."""

    __slots__ = ("_nms", "_supi")

    def __init__(self, nms: Nms, supi: str) -> None:
        self._nms = nms
        self._supi = supi

    @property
    def events(self) -> list[tuple[float, str]]:
        return self._nms.events

    def note_ran_event(self, weight: float = 1.0) -> None:
        self._nms.note_ran_event(weight, supi=self._supi)

    def note_core_event(self, weight: float = 1.0) -> None:
        self._nms.note_core_event(weight, supi=self._supi)

    def force_congestion(self, which: str | None) -> None:
        self._nms.force_congestion(which, supi=self._supi)

    def congested(self) -> str | None:
        return self._nms.congested(self._supi)

    def suggested_backoff(self) -> float:
        return self._nms.suggested_backoff(self._supi)

    def log(self, message: str) -> None:
        self._nms.log(message)
