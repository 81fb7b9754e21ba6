"""gNB model: NAS message transport and radio-bearer bookkeeping.

Two behaviours matter to the reproduction:

1. **Signaling transport.** NAS messages between modem and core ride
   the radio link with a latency distribution; the gNB forwards both
   directions. Signaling works whether or not a data session exists —
   the property SEED's collaboration channel depends on (§4.1).
2. **Bearer release on last session.** "5G gNB releases the last radio
   bearer once the last data session is released, thus causing the
   control-plane reattach" (§4.4.1). The gNB tracks data sessions per
   UE; when the count reaches zero the device is notified and must
   reattach before new sessions — the cost SEED's DIAG-session trick
   (Figure 6) avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.nas.messages import NasMessage
from repro.simkernel.rng import RngStreams
from repro.simkernel.simulator import Simulator


@dataclass
class RadioLink:
    """Latency model for one signaling hop (radio + backhaul)."""

    mean: float = 0.020
    stdev: float = 0.008
    floor: float = 0.004

    def sample(self, rng: RngStreams, stream: str) -> float:
        return rng.gauss_clamped(stream, self.mean, self.stdev, self.floor)


class Gnb:
    """Access node connecting registered devices to the core."""

    def __init__(self, sim: Simulator, link: RadioLink | None = None) -> None:
        self.sim = sim
        self.link = link or RadioLink()
        self._core_handler: Callable[[str, NasMessage], None] | None = None
        self._device_handlers: dict[str, Callable[[NasMessage], None]] = {}
        self._rrc_release_handlers: dict[str, Callable[[], None]] = {}
        self._bearers: dict[str, int] = {}
        self.radio_up = True

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_core(self, handler: Callable[[str, NasMessage], None]) -> None:
        self._core_handler = handler

    def attach_device(
        self,
        supi: str,
        nas_handler: Callable[[NasMessage], None],
        rrc_release_handler: Callable[[], None],
    ) -> None:
        self._device_handlers[supi] = nas_handler
        self._rrc_release_handlers[supi] = rrc_release_handler

    # ------------------------------------------------------------------
    # NAS transport
    # ------------------------------------------------------------------
    def uplink(self, supi: str, message: NasMessage) -> None:
        """Device → core NAS message."""
        if self._core_handler is None:
            raise RuntimeError("gNB has no core attached")
        if not self.radio_up:
            return  # radio access broken: out of SEED's scope (§4.5)
        delay = self.link.sample(self.sim.rng, "gnb.uplink")
        self.sim.schedule(delay, self._core_handler, supi, message, label="gnb:uplink")

    def downlink(self, supi: str, message: NasMessage) -> None:
        """Core → device NAS message."""
        handler = self._device_handlers.get(supi)
        if handler is None or not self.radio_up:
            return
        delay = self.link.sample(self.sim.rng, "gnb.downlink")
        self.sim.schedule(delay, handler, message, label="gnb:downlink")

    # ------------------------------------------------------------------
    # Radio bearers
    # ------------------------------------------------------------------
    def bearer_count(self, supi: str) -> int:
        return self._bearers.get(supi, 0)

    def add_bearer(self, supi: str) -> None:
        self._bearers[supi] = self._bearers.get(supi, 0) + 1

    def remove_bearer(self, supi: str) -> None:
        """Drop one data bearer; releasing the last triggers RRC release."""
        count = self._bearers.get(supi, 0)
        if count <= 0:
            return
        self._bearers[supi] = count - 1
        if self._bearers[supi] == 0:
            # Re-check at fire time: a bearer re-added in the same
            # event round (session re-establishment) keeps RRC alive.
            self.sim.call_soon(self._maybe_release_rrc, supi, label="gnb:rrc-release")

    def _maybe_release_rrc(self, supi: str) -> None:
        if self._bearers.get(supi, 0) > 0:
            return
        handler = self._rrc_release_handlers.get(supi)
        if handler is not None:
            handler()

    def release_all_bearers(self, supi: str) -> None:
        self._bearers[supi] = 0
