"""Network management system metrics (Magma NMS role).

The SEED infra assistance "acquires ... extra information such as
RAN/core load from Magma NMS" (§6) to emit congestion warnings. The
NMS tracks per-component load as exponentially-smoothed rates and
exposes congestion checks with configurable thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Per-component load gauges plus congestion thresholds for the
    core's RAN and core functions, which every attached device loads."""

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
        self._forced_congestion: str | None = None

    def note_ran_event(self, weight: float = 1.0) -> None:
        self.ran_load.bump(self.sim.now, weight)

    def note_core_event(self, weight: float = 1.0) -> None:
        self.core_load.bump(self.sim.now, weight)

    def force_congestion(self, which: str | None) -> None:
        """Test/scenario hook: pin congestion state ('ran'/'core'/None)."""
        self._forced_congestion = which

    def congested(self) -> str | None:
        """Return 'ran', 'core', or None."""
        if self._forced_congestion is not None:
            return self._forced_congestion
        if self.core_load.value(self.sim.now) > self.core_congestion_threshold:
            return "core"
        if self.ran_load.value(self.sim.now) > self.ran_congestion_threshold:
            return "ran"
        return None

    def suggested_backoff(self) -> float:
        """Backoff timer embedded in congestion warnings (§5.2)."""
        which = self.congested()
        if which == "core":
            return 10.0
        if which == "ran":
            return 5.0
        return 0.0
