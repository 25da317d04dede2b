"""Responder raplets: the components that actually reconfigure the proxy.

"Responder raplets are programmed to handle such events by instantiating new
components or modifying the behavior of a communication protocol or user
interface."  The responders here modify a proxy's filter chain through its
ControlThread:

* :class:`FecResponder` — the paper's headline adaptation: insert an FEC
  encoder when the observed loss rate rises, upgrade/downgrade its (n, k)
  as loss changes, remove it when the link is clean again;
* :class:`TranscoderResponder` — insert bandwidth-reducing transcoders when
  a resource-limited device joins (or the channel saturates) and remove
  them when they are no longer needed.
"""

from __future__ import annotations

from typing import List, Optional

from ..core import CompositionError, ControlThread, Filter
from ..filters import (
    AudioDownsampleFilter,
    AudioMonoFilter,
    FecEncoderFilter,
    VideoBFrameDropFilter,
)
from ..obs.events import EVENT_FEC_POLICY_CHANGE, get_event_log
from .events import (
    EVENT_BANDWIDTH,
    EVENT_DEVICE_JOINED,
    EVENT_DEVICE_LEFT,
    EVENT_FILTER_INSERTED,
    EVENT_FILTER_REMOVED,
    EVENT_HANDOFF,
    EVENT_LOSS_RATE,
    Event,
    EventBus,
)
from .policy import AdaptationLimits, FecPolicy, UserPreferences
from .raplets import ResponderRaplet


class FecResponder(ResponderRaplet):
    """Demand-driven FEC: insert/adjust/remove the encoder as loss changes."""

    subscriptions = (EVENT_LOSS_RATE, EVENT_HANDOFF)

    def __init__(self, control: ControlThread, bus: EventBus,
                 policy: Optional[FecPolicy] = None,
                 limits: Optional[AdaptationLimits] = None,
                 preferences: Optional[UserPreferences] = None,
                 position: int = 0,
                 name: str = "fec-responder") -> None:
        super().__init__(name, bus)
        self.control = control
        self.policy = policy or FecPolicy()
        self.limits = limits or AdaptationLimits()
        self.preferences = preferences or UserPreferences()
        self.position = position
        self._encoder: Optional[FecEncoderFilter] = None
        self.insertions = 0
        self.removals = 0
        self.upgrades = 0

    # -- state -----------------------------------------------------------------

    @property
    def fec_active(self) -> bool:
        return self._encoder is not None

    @property
    def current_code(self) -> Optional["tuple[int, int]"]:
        if self._encoder is None:
            return None
        return (self._encoder.k, self._encoder.n)

    # -- event handling ----------------------------------------------------------

    def respond(self, event: Event) -> bool:
        if not self.preferences.allow_fec:
            return False
        if event.event_type == EVENT_LOSS_RATE:
            return self._respond_to_loss(event)
        if event.event_type == EVENT_HANDOFF:
            # A handoff into a distant zone is treated as an early warning:
            # re-evaluate using the loss rate implied by the new distance.
            distance = float(event.value("distance_m", 0.0))
            from ..net import loss_probability_at_distance

            synthetic = Event(event_type=EVENT_LOSS_RATE, source=event.source,
                              time_s=event.time_s,
                              data={"loss_rate":
                                    loss_probability_at_distance(distance),
                                    "receiver": event.value("receiver", "")})
            return self._respond_to_loss(synthetic)
        return False

    def _respond_to_loss(self, event: Event) -> bool:
        loss_rate = float(event.value("loss_rate", 0.0))
        now_s = event.time_s
        if self.policy.should_remove(loss_rate, self.fec_active):
            return self._remove(now_s)
        if self.policy.should_insert(loss_rate, self.fec_active):
            k, n = self.policy.code_for(loss_rate)
            if not self.fec_active:
                return self._insert(k, n, now_s)
            if (k, n) != self.current_code:
                return self._change_code(k, n, now_s)
        return False

    # -- actions -----------------------------------------------------------------

    def _insert(self, k: int, n: int, now_s: float) -> bool:
        if not self.limits.permits(now_s):
            return False
        encoder = FecEncoderFilter(k=k, n=n, name=f"{self.name}-fec({n},{k})")
        try:
            self.control.add(encoder, position=self.position)
        except CompositionError:
            return False
        self._encoder = encoder
        self.insertions += 1
        self.limits.record_action(now_s)
        self.bus.publish(Event(event_type=EVENT_FILTER_INSERTED, source=self.name,
                               time_s=now_s,
                               data={"filter": encoder.name, "k": k, "n": n}))
        self._log_policy_change("insert", k=k, n=n, filter=encoder.name)
        return True

    def _remove(self, now_s: float) -> bool:
        if self._encoder is None or not self.limits.permits(now_s):
            return False
        try:
            self.control.remove(self._encoder)
        except CompositionError:
            return False
        removed = self._encoder
        self._encoder = None
        self.removals += 1
        self.limits.record_action(now_s)
        self.bus.publish(Event(event_type=EVENT_FILTER_REMOVED, source=self.name,
                               time_s=now_s, data={"filter": removed.name}))
        self._log_policy_change("remove", filter=removed.name)
        return True

    def _change_code(self, k: int, n: int, now_s: float) -> bool:
        if self._encoder is None or not self.limits.permits(now_s):
            return False
        new_encoder = FecEncoderFilter(k=k, n=n, name=f"{self.name}-fec({n},{k})")
        try:
            self.control.replace(self._encoder, new_encoder)
        except CompositionError:
            return False
        self._encoder = new_encoder
        self.upgrades += 1
        self.limits.record_action(now_s)
        self.bus.publish(Event(event_type=EVENT_FILTER_INSERTED, source=self.name,
                               time_s=now_s,
                               data={"filter": new_encoder.name, "k": k, "n": n,
                                     "replaced": True}))
        self._log_policy_change("change-code", k=k, n=n,
                                filter=new_encoder.name)
        return True

    def _log_policy_change(self, action: str, **fields) -> None:
        """Record one FEC policy transition in the process event log."""
        get_event_log().emit(
            EVENT_FEC_POLICY_CHANGE, stream=self.control.name,
            cid=getattr(self.control, "correlation_id", ""),
            action=action, responder=self.name, **fields)


class TranscoderResponder(ResponderRaplet):
    """Insert bandwidth-reducing transcoders for limited devices or congestion.

    Keeps at most one transcoder chain active; when the last limited device
    leaves (or utilisation falls back), the chain is removed again.
    """

    subscriptions = (EVENT_DEVICE_JOINED, EVENT_DEVICE_LEFT, EVENT_BANDWIDTH)

    def __init__(self, control: ControlThread, bus: EventBus,
                 limits: Optional[AdaptationLimits] = None,
                 preferences: Optional[UserPreferences] = None,
                 utilisation_threshold: float = 0.85,
                 name: str = "transcoder-responder") -> None:
        super().__init__(name, bus)
        self.control = control
        self.limits = limits or AdaptationLimits(min_interval_s=0.0)
        self.preferences = preferences or UserPreferences()
        self.utilisation_threshold = utilisation_threshold
        self._active_filters: List[Filter] = []
        self._limited_devices: set = set()

    @property
    def transcoding_active(self) -> bool:
        return bool(self._active_filters)

    def respond(self, event: Event) -> bool:
        if not self.preferences.allow_transcoding:
            return False
        if event.event_type == EVENT_DEVICE_JOINED:
            return self._on_device_joined(event)
        if event.event_type == EVENT_DEVICE_LEFT:
            return self._on_device_left(event)
        if event.event_type == EVENT_BANDWIDTH:
            return self._on_bandwidth(event)
        return False

    def _descriptor_is_limited(self, descriptor: dict) -> bool:
        return bool(descriptor.get("limited")
                    or descriptor.get("max_audio_channels", 2) < 2
                    or not descriptor.get("supports_video_b_frames", True))

    def _on_device_joined(self, event: Event) -> bool:
        descriptor = dict(event.value("descriptor", {}) or {})
        if not self._descriptor_is_limited(descriptor):
            return False
        self._limited_devices.add(event.value("device", ""))
        return self._engage(event.time_s, descriptor)

    def _on_device_left(self, event: Event) -> bool:
        self._limited_devices.discard(event.value("device", ""))
        if self._limited_devices:
            return False
        return self._disengage(event.time_s)

    def _on_bandwidth(self, event: Event) -> bool:
        utilisation = float(event.value("utilisation", 0.0))
        if utilisation >= self.utilisation_threshold and not self.transcoding_active:
            return self._engage(event.time_s, {"max_audio_channels": 1})
        if (utilisation < self.utilisation_threshold / 2
                and self.transcoding_active and not self._limited_devices):
            return self._disengage(event.time_s)
        return False

    def _engage(self, now_s: float, descriptor: dict) -> bool:
        if self.transcoding_active or not self.limits.permits(now_s):
            return False
        chain: List[Filter] = []
        if descriptor.get("max_audio_channels", 2) < 2:
            chain.append(AudioMonoFilter(name=f"{self.name}-mono"))
        chain.append(AudioDownsampleFilter(factor=2, name=f"{self.name}-downsample"))
        if not descriptor.get("supports_video_b_frames", True):
            chain.append(VideoBFrameDropFilter(name=f"{self.name}-bdrop"))
        try:
            # One splice for the whole chain: no unit sees half of it.
            self.control.add(chain, position=0)
        except CompositionError:
            return False
        self._active_filters = chain
        self.limits.record_action(now_s)
        self.bus.publish(Event(event_type=EVENT_FILTER_INSERTED, source=self.name,
                               time_s=now_s,
                               data={"filters": [f.name for f in chain]}))
        return True

    def _disengage(self, now_s: float) -> bool:
        if not self.transcoding_active or not self.limits.permits(now_s):
            return False
        removed_names = []
        for filter_obj in list(self._active_filters):
            if self._safe_remove(filter_obj):
                removed_names.append(filter_obj.name)
        self._active_filters = []
        self.limits.record_action(now_s)
        self.bus.publish(Event(event_type=EVENT_FILTER_REMOVED, source=self.name,
                               time_s=now_s, data={"filters": removed_names}))
        return True

    def _safe_remove(self, filter_obj: Filter) -> bool:
        try:
            self.control.remove(filter_obj)
            return True
        except CompositionError:
            return False
