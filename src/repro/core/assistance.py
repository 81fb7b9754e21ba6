"""Low-overhead infrastructure assistance decision tree (paper Fig. 8).

The infra classifies every failure event with a small decision tree —
the paper's "decision-tree-based failure diagnosis without heavy
processing" (§7.2.1) — and emits one of four assistance types (plus a
hardware-reset request for unresponsive devices). The tree mirrors
Figure 8 exactly:

* passive (failure not initialized by the network)
    * no device response (timeout)      → hardware reset request
    * device reject                      → cause code to SIM
    * data-delivery failure from SIM     → d-plane reset / congestion warning
* active (network-initialized reject)
    * standardized cause, no config      → cause code
    * standardized cause, config needed  → cause + config
    * unstandardized, suggested action   → suggested action
    * unstandardized, no suggestion      → cause + online learning

The tree is an explicit data structure so tests can verify the
classification path of every event (and so the CPU model can charge a
per-node cost, §7.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.collaboration import DiagnosisInfo, DiagnosisKind
from repro.core.reset import ResetAction
from repro.nas.causes import CauseInfo, Plane, cause_info


@dataclass
class FailureEvent:
    """Input to the infra classifier."""

    supi: str
    origin: str                      # "active" (network reject) / "passive"
    plane: Plane = Plane.CONTROL
    cause: int | None = None
    device_responded: bool = True    # False → device timeout
    sim_reported: bool = False       # data-delivery report from the SIM
    congested: str | None = None     # "ran" / "core" / None
    backoff_seconds: float = 0.0


@dataclass
class Classification:
    """Output: the assistance decision plus the traversal trace."""

    info: DiagnosisInfo
    path: tuple[str, ...]
    nodes_visited: int
    needs_online_learning: bool = False


@dataclass
class _Node:
    name: str
    predicate: Callable[[FailureEvent, "AssistanceTree"], bool] | None = None
    yes: "str | None" = None
    no: "str | None" = None
    leaf: Callable[[FailureEvent, "AssistanceTree"], Classification] | None = None


class AssistanceTree:
    """The Figure 8 classifier.

    ``custom_actions`` maps operator-customized cause codes to the reset
    action operators configured for them (§5.2: "provides customized
    causes with suggested actions to cover failures from customized
    policies"). ``config_lookup`` resolves an Appendix-A config kind to
    the current configuration values (backed by the config store).
    """

    def __init__(
        self,
        config_lookup: Callable[[str], dict],
        custom_actions: dict[int, ResetAction] | None = None,
    ) -> None:
        self.config_lookup = config_lookup
        self.custom_actions = dict(custom_actions or {})
        self._nodes: dict[str, _Node] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        add = self._add
        add(_Node("root", predicate=lambda e, t: e.origin == "passive",
                  yes="passive", no="active"))
        # Passive branch -------------------------------------------------
        add(_Node("passive", predicate=lambda e, t: not e.device_responded,
                  yes="leaf_hw_reset", no="passive_responded"))
        add(_Node("passive_responded", predicate=lambda e, t: e.sim_reported,
                  yes="passive_delivery", no="passive_reject"))
        add(_Node("passive_delivery", predicate=lambda e, t: e.congested is not None,
                  yes="leaf_congestion", no="leaf_dplane_reset"))
        add(_Node("passive_reject", predicate=lambda e, t: t._needs_config(e),
                  yes="leaf_cause_config", no="leaf_cause"))
        # Active branch ----------------------------------------------------
        add(_Node("active", predicate=lambda e, t: t._standardized(e),
                  yes="active_std", no="active_custom"))
        add(_Node("active_std", predicate=lambda e, t: t._needs_config(e),
                  yes="leaf_cause_config", no="leaf_cause"))
        add(_Node("active_custom",
                  predicate=lambda e, t: e.cause in t.custom_actions,
                  yes="leaf_suggested", no="leaf_online_learning"))
        # Leaves -------------------------------------------------------------
        add(_Node("leaf_hw_reset", leaf=self._leaf_hw_reset))
        add(_Node("leaf_congestion", leaf=self._leaf_congestion))
        add(_Node("leaf_dplane_reset", leaf=self._leaf_dplane_reset))
        add(_Node("leaf_cause", leaf=self._leaf_cause))
        add(_Node("leaf_cause_config", leaf=self._leaf_cause_config))
        add(_Node("leaf_suggested", leaf=self._leaf_suggested))
        add(_Node("leaf_online_learning", leaf=self._leaf_online_learning))

    def _add(self, node: _Node) -> None:
        self._nodes[node.name] = node

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _cause_info(self, event: FailureEvent) -> CauseInfo | None:
        if event.cause is None:
            return None
        return cause_info(event.plane, event.cause)

    def _standardized(self, event: FailureEvent) -> bool:
        info = self._cause_info(event)
        return info is not None and not info.name.startswith("Unstandardized")

    def _needs_config(self, event: FailureEvent) -> bool:
        info = self._cause_info(event)
        return info is not None and info.config_related

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def _leaf_hw_reset(self, event: FailureEvent, _t) -> Classification:
        return self._done(
            DiagnosisInfo(
                kind=DiagnosisKind.HARDWARE_RESET_REQUEST,
                plane=event.plane,
                suggested_action=ResetAction.B1_MODEM_RESET,
            )
        )

    def _leaf_congestion(self, event: FailureEvent, _t) -> Classification:
        return self._done(
            DiagnosisInfo(
                kind=DiagnosisKind.CONGESTION_WARNING,
                plane=event.plane,
                backoff_seconds=event.backoff_seconds or 5.0,
            )
        )

    def _leaf_dplane_reset(self, event: FailureEvent, _t) -> Classification:
        return self._done(
            DiagnosisInfo(
                kind=DiagnosisKind.SUGGESTED_ACTION,
                plane=Plane.DATA,
                suggested_action=ResetAction.B3_DPLANE_RESET,
            )
        )

    def _leaf_cause(self, event: FailureEvent, _t) -> Classification:
        return self._done(
            DiagnosisInfo(kind=DiagnosisKind.CAUSE, plane=event.plane, cause=event.cause or 0)
        )

    def _leaf_cause_config(self, event: FailureEvent, _t) -> Classification:
        info = self._cause_info(event)
        config = self.config_lookup(info.config.value) if info and info.config else {}
        return self._done(
            DiagnosisInfo(
                kind=DiagnosisKind.CAUSE_WITH_CONFIG,
                plane=event.plane,
                cause=event.cause or 0,
                config=config,
            )
        )

    def _leaf_suggested(self, event: FailureEvent, _t) -> Classification:
        return self._done(
            DiagnosisInfo(
                kind=DiagnosisKind.SUGGESTED_ACTION,
                plane=event.plane,
                cause=event.cause or 0,
                customized=True,
                suggested_action=self.custom_actions[event.cause],
            )
        )

    def _leaf_online_learning(self, event: FailureEvent, _t) -> Classification:
        return self._done(
            DiagnosisInfo(
                kind=DiagnosisKind.CAUSE,
                plane=event.plane,
                cause=event.cause or 0,
                customized=True,
            ),
            needs_online_learning=True,
        )

    # ------------------------------------------------------------------
    def classify(self, event: FailureEvent) -> Classification:
        """Walk the tree; returns the decision with its path trace."""
        self._pending_path: list[str] = []
        node = self._nodes["root"]
        while node.leaf is None:
            self._pending_path.append(node.name)
            branch = node.yes if node.predicate(event, self) else node.no
            node = self._nodes[branch]
        self._pending_path.append(node.name)
        return node.leaf(event, self)

    def _done(self, info: DiagnosisInfo, needs_online_learning: bool = False) -> Classification:
        path = tuple(self._pending_path)
        return Classification(
            info=info,
            path=path,
            nodes_visited=len(path),
            needs_online_learning=needs_online_learning,
        )

    @property
    def node_count(self) -> int:
        return len(self._nodes)
