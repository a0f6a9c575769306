"""Declared event semantics of the windowed engine.

The registry names the events a scenario can raise and what each one
means.  The engines implement these semantics directly — the window loop
(:func:`repro.sim.engine.drive_windows`) detects the meeting and, given a
:class:`~repro.sim.engine.FreezeRule`, the freeze; the stall is lowered into
the trajectory streams; the batch driver reproduces the same rules on
columns — and nothing dispatches on a kind's strings.  Each kind declares
three properties:

``detection``
    How the event time is found inside a window.  ``"first_hit"`` solves one
    quadratic first-crossing against a single radius (the meeting test);
    ``"dual_radius"`` solves two first-crossings — the smaller radius still
    means rendezvous while the larger one fires the event (the Section 5
    freeze); ``"scheduled"`` means the event time is known before the run
    starts and is lowered into the trajectory stream itself (a segment
    transform), so the window loop never detects it explicitly.

``resolution``
    What happens when the event fires.  ``"terminate"`` ends the run (a
    meeting); ``"freeze_resimulate"`` stops the affected agent forever at the
    event position and re-simulates the remainder of the window with it
    stationary, honouring the segment budget on resume;  ``"pause_resume"``
    holds the agent at its current position for the event's duration and then
    continues its program, shifted in time.

``tracking_clamp``
    How far the closest-approach tracker may scan a window in which the event
    fires.  ``"full_window"`` is the symmetric engine's convention (meeting
    windows are scanned in full); ``"clamp_at_event"`` stops the scan at the
    event offset because motion past it never happens (the freeze).

The registry is the declared vocabulary: scenario families
(:mod:`repro.sim.scenarios`) check their event kinds against it, and
``repro scenarios`` prints these declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "FREEZE",
    "MEETING",
    "STALL",
    "EventKind",
    "get_event_kind",
    "register_event_kind",
    "registered_event_kinds",
]

#: Valid detection / resolution / tracking-clamp vocabularies.  Closed sets:
#: each value names semantics an engine implements, so an unknown value is a
#: programming error worth failing on at registration time.
DETECTIONS = ("first_hit", "dual_radius", "scheduled")
RESOLUTIONS = ("terminate", "freeze_resimulate", "pause_resume")
TRACKING_CLAMPS = ("full_window", "clamp_at_event")


@dataclass(frozen=True)
class EventKind:
    """One declared event semantics: detection, resolution, tracking clamp."""

    name: str
    detection: str
    resolution: str
    tracking_clamp: str
    doc: str = ""

    def __post_init__(self) -> None:
        if self.detection not in DETECTIONS:
            raise ValueError(
                f"detection must be one of {DETECTIONS}, got {self.detection!r}"
            )
        if self.resolution not in RESOLUTIONS:
            raise ValueError(
                f"resolution must be one of {RESOLUTIONS}, got {self.resolution!r}"
            )
        if self.tracking_clamp not in TRACKING_CLAMPS:
            raise ValueError(
                f"tracking_clamp must be one of {TRACKING_CLAMPS}, "
                f"got {self.tracking_clamp!r}"
            )


_REGISTRY: Dict[str, EventKind] = {}


def register_event_kind(kind: EventKind) -> EventKind:
    """Register ``kind`` (or return the identical already-registered one).

    Like the contract registry, re-registering a name is allowed only with
    identical semantics — two modules silently disagreeing about what an
    event *means* is itself a bug.
    """
    existing = _REGISTRY.get(kind.name)
    if existing is not None:
        if existing != kind:
            raise ValueError(
                f"event kind {kind.name!r} is already registered with "
                "different semantics"
            )
        return existing
    _REGISTRY[kind.name] = kind
    return kind


def get_event_kind(name: str) -> EventKind:
    """The registered event kind with this name; ``KeyError`` when unknown."""
    return _REGISTRY[name]


def registered_event_kinds() -> Tuple[EventKind, ...]:
    """Every registered event kind, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


MEETING = register_event_kind(
    EventKind(
        name="meeting",
        detection="first_hit",
        resolution="terminate",
        tracking_clamp="full_window",
        doc=(
            "Rendezvous: the agents' distance reaches the visibility radius. "
            "The run terminates at the first hit; the window is still tracked "
            "in full for the closest approach."
        ),
    )
)

FREEZE = register_event_kind(
    EventKind(
        name="freeze",
        detection="dual_radius",
        resolution="freeze_resimulate",
        tracking_clamp="clamp_at_event",
        doc=(
            "Section 5 asymmetric visibility: the larger-radius agent sees "
            "the other one first and stops forever; the window is "
            "re-simulated from the freeze time with it stationary.  Tracking "
            "clamps at the freeze offset — motion past it is counterfactual."
        ),
    )
)

STALL = register_event_kind(
    EventKind(
        name="stall",
        detection="scheduled",
        resolution="pause_resume",
        tracking_clamp="full_window",
        doc=(
            "Faulty agent: at a sampled onset the agent holds its position "
            "for a sampled interval, then resumes its program shifted in "
            "time.  Lowered into the trajectory stream as an inserted "
            "zero-velocity segment, identically on the event and batch paths."
        ),
    )
)
