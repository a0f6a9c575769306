"""The scenario registry: one event engine, many worlds.

A *scenario family* binds together everything one simulated world needs,
registered under a name in one process-wide registry:

* the :mod:`repro.sim.events` kinds the world can fire;
* the simulator options the family owns (and how to validate them at the
  campaign-spec boundary — :mod:`repro.campaign.spec` delegates here);
* a sampler drawing the family's per-run options for sweeps and fuzzing;
* the batch-engine lowering hooks (:func:`scaled_agents` for heterogeneous
  speeds, the stall transforms of :mod:`repro.motion.compiler` for faulty
  agents) shared by the event and vectorized paths.

The families shipped here:

``symmetric``
    The body of the paper — shared visibility radius, meeting only.
``asymmetric-radii``
    Section 5 — per-agent radii, the larger-radius agent freezes on sight.
``heterogeneous-speed``
    Per-agent speed scaling: each agent's ``units.speed`` is multiplied by a
    positive factor.  Local move *durations* are speed-independent
    (``move_duration_absolute(d) = d * clock_rate``), so scaling changes the
    ground covered per instruction, not the program's timing.
``stalling``
    Faulty agents: at a sampled onset the agent holds its position for a
    sampled interval, then resumes its program shifted in time (the
    ``stall`` event kind).  The stall snaps to the first segment boundary at
    or after the onset, which makes the event and batch lowerings
    bit-identical by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.contracts import core as _contracts
from repro.contracts.invariants import SCENARIO_SPEED_SCALING
from repro.core.instance import AgentSpec, Instance
from repro.sim.events import get_event_kind

__all__ = [
    "STALL_RANGE_OPTIONS",
    "ScenarioFamily",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "registered_scenarios",
    "resolve_stall_options",
    "scaled_agents",
    "scenarios_for_options",
    "stall_schedule",
    "validate_scenario_options",
]

#: Derived campaign options: closed ``[lo, hi]`` intervals from which each
#: instance's stall parameters are drawn deterministically (by shard stream
#: position) when the concrete per-instance value is not given directly.
STALL_RANGE_OPTIONS = ("stall_time_range", "stall_duration_range")


@dataclass(frozen=True)
class ScenarioFamily:
    """One registered world: event kinds, owned options, sampler, validator.

    ``options`` are the simulator-option keys the family owns; ``validate``
    receives ``(options, where, error)`` and must raise ``error`` on any
    out-of-domain or inconsistent value among them.  ``sample_options`` draws
    one run's worth of the family's options from a numpy ``Generator`` — the
    sampler class the sweeps and the differential fuzz build on.
    """

    name: str
    event_kinds: Tuple[str, ...]
    options: Tuple[str, ...]
    doc: str
    validate: Callable[[Mapping[str, Any], str, type], None]
    sample_options: Callable[[Any], Dict[str, Any]]

    def __post_init__(self) -> None:
        for kind in self.event_kinds:
            get_event_kind(kind)  # KeyError on an undeclared event kind

    def matches(self, options: Mapping[str, Any]) -> bool:
        """Whether any of the family's owned options appear in ``options``."""
        return any(key in options for key in self.options)


_REGISTRY: Dict[str, ScenarioFamily] = {}


def register_scenario(family: ScenarioFamily) -> ScenarioFamily:
    """Register ``family``; re-registering a name is an error."""
    if family.name in _REGISTRY:
        raise ValueError(f"scenario family {family.name!r} is already registered")
    _REGISTRY[family.name] = family
    return family


def get_scenario(name: str) -> ScenarioFamily:
    """The registered family with this name; ``KeyError`` when unknown."""
    return _REGISTRY[name]


def available_scenarios() -> Tuple[str, ...]:
    """Names of every registered scenario family, sorted."""
    return tuple(sorted(_REGISTRY))


def registered_scenarios() -> Tuple[ScenarioFamily, ...]:
    """Every registered scenario family, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def scenarios_for_options(options: Mapping[str, Any]) -> Tuple[ScenarioFamily, ...]:
    """The families activated by ``options`` (``symmetric`` when none match).

    Families compose — asymmetric radii plus a stalling agent is one run
    activating two families — so this returns every match, not a single
    winner.
    """
    matched = tuple(
        family for family in registered_scenarios()
        if family.options and family.matches(options)
    )
    return matched if matched else (get_scenario("symmetric"),)


def validate_scenario_options(
    options: Mapping[str, Any],
    where: str = "simulator options",
    error: type = ValueError,
) -> None:
    """Validate every scenario-owned key present in ``options``.

    Each registered family validates its own keys; unknown keys are not this
    function's business (the campaign spec has its own allow-list).
    """
    for family in registered_scenarios():
        if family.matches(options):
            family.validate(options, where, error)


# -- heterogeneous speeds: lowering + validation ----------------------------------


def _check_speed_factor(value: Any, label: str, where: str, error: type) -> float:
    try:
        factor = float(value)
    except (TypeError, ValueError):
        raise error(f"{where}: {label} must be a number, got {value!r}") from None
    if not (math.isfinite(factor) and factor > 0.0):
        raise error(f"{where}: {label} must be positive and finite, got {value!r}")
    return factor


def _scaled_spec(spec: AgentSpec, factor: float) -> AgentSpec:
    if factor == 1.0:
        return spec
    scaled = replace(spec, units=replace(spec.units, speed=spec.units.speed * factor))
    if _contracts.enabled():
        SCENARIO_SPEED_SCALING.check(
            math.isfinite(factor)
            and factor > 0.0
            and scaled.units.speed == spec.units.speed * factor
            and scaled.units.clock_rate == spec.units.clock_rate
            and scaled.units.wake_time == spec.units.wake_time
            and scaled.frame == spec.frame
            and scaled.name == spec.name,
            f"agent={spec.name} factor={factor}",
        )
    return scaled


def scaled_agents(
    instance: Instance, speed_a: float = 1.0, speed_b: float = 1.0
) -> Tuple[AgentSpec, AgentSpec]:
    """The instance's agent specs with per-agent speed factors applied.

    This is the single lowering point of the heterogeneous-speed family: the
    event engine and the batch driver call it instead of
    ``instance.agents()``, so the scaled world is bit-identical across paths
    (the compiled tables and segment streams are derived from the same specs,
    and the compiler caches key on the frozen spec value).
    """
    spec_a, spec_b = instance.agents()
    if speed_a == 1.0 and speed_b == 1.0:
        return spec_a, spec_b
    _check_speed_factor(speed_a, "speed_a", "speed scaling", ValueError)
    _check_speed_factor(speed_b, "speed_b", "speed scaling", ValueError)
    return _scaled_spec(spec_a, float(speed_a)), _scaled_spec(spec_b, float(speed_b))


def _validate_speed_options(
    options: Mapping[str, Any], where: str, error: type
) -> None:
    for key in ("speed_a", "speed_b"):
        if key in options and options[key] is not None:
            _check_speed_factor(options[key], key, where, error)


def _sample_speed_options(rng: Any) -> Dict[str, Any]:
    # Log-uniform factors in [1/4, 4]: symmetric around equal speeds, covering
    # both a much-faster and a much-slower partner.
    return {
        "speed_a": float(math.exp(rng.uniform(math.log(0.25), math.log(4.0)))),
        "speed_b": float(math.exp(rng.uniform(math.log(0.25), math.log(4.0)))),
    }


# -- stalling agents: schedule + validation ---------------------------------------


def _check_range(value: Any, label: str, where: str, error: type, *, low: float):
    try:
        lo, hi = (float(value[0]), float(value[1]))
    except (TypeError, ValueError, IndexError):
        raise error(
            f"{where}: {label} must be a [lo, hi] pair of numbers, got {value!r}"
        ) from None
    if not (math.isfinite(lo) and math.isfinite(hi) and low <= lo <= hi):
        raise error(
            f"{where}: {label} must satisfy {low} <= lo <= hi and be finite, "
            f"got {value!r}"
        )
    return lo, hi


def stall_schedule(
    stall_agent: Any,
    stall_time: Any,
    stall_duration: Any,
    where: str = "stall options",
    error: type = ValueError,
) -> Optional[Tuple[str, float, float]]:
    """Validate the stall trio and return ``(agent, onset, duration)``.

    All three options must be given together (or all be ``None``, returning
    ``None``): a stall without an onset or a duration is meaningless, and
    catching the half-configured case at the boundary beats a silent no-op.
    """
    given = [
        value for value in (stall_agent, stall_time, stall_duration)
        if value is not None
    ]
    if not given:
        return None
    if len(given) != 3:
        raise error(
            f"{where}: stall_agent, stall_time and stall_duration must be "
            "given together"
        )
    if stall_agent not in ("A", "B"):
        raise error(f"{where}: stall_agent must be 'A' or 'B', got {stall_agent!r}")
    try:
        onset = float(stall_time)
        duration = float(stall_duration)
    except (TypeError, ValueError):
        raise error(
            f"{where}: stall_time and stall_duration must be numbers, got "
            f"{stall_time!r} / {stall_duration!r}"
        ) from None
    if not (math.isfinite(onset) and onset >= 0.0):
        raise error(f"{where}: stall_time must be >= 0 and finite, got {stall_time!r}")
    if not (math.isfinite(duration) and duration > 0.0):
        raise error(
            f"{where}: stall_duration must be positive and finite, got "
            f"{stall_duration!r}"
        )
    return str(stall_agent), onset, duration


def _validate_stall_options(
    options: Mapping[str, Any], where: str, error: type
) -> None:
    ranges = {
        key: options[key]
        for key in STALL_RANGE_OPTIONS
        if key in options and options[key] is not None
    }
    if "stall_time_range" in ranges and options.get("stall_time") is not None:
        raise error(f"{where}: give stall_time or stall_time_range, not both")
    if "stall_duration_range" in ranges and options.get("stall_duration") is not None:
        raise error(f"{where}: give stall_duration or stall_duration_range, not both")
    if "stall_time_range" in ranges:
        _check_range(ranges["stall_time_range"], "stall_time_range", where, error, low=0.0)
    if "stall_duration_range" in ranges:
        lo, _hi = _check_range(
            ranges["stall_duration_range"], "stall_duration_range", where, error, low=0.0
        )
        if lo <= 0.0:
            raise error(
                f"{where}: stall_duration_range must have a positive lower "
                f"bound, got {ranges['stall_duration_range']!r}"
            )
    # Ranges stand in for the concrete values in the together-or-not-at-all
    # rule; the concrete trio (post range resolution) is checked by
    # stall_schedule at run time.
    placeholder = 0.0
    stall_time = options.get("stall_time")
    if stall_time is None and "stall_time_range" in ranges:
        stall_time = placeholder
    stall_duration = options.get("stall_duration")
    if stall_duration is None and "stall_duration_range" in ranges:
        stall_duration = 1.0
    stall_schedule(options.get("stall_agent"), stall_time, stall_duration, where, error)


def resolve_stall_options(options: Dict[str, Any], rng: Any) -> Dict[str, Any]:
    """Replace :data:`STALL_RANGE_OPTIONS` in ``options`` with drawn values.

    Draw order is fixed (time, then duration) so a store written from ranged
    options is reproducible from the spec alone.  ``options`` is modified in
    place and returned.
    """
    time_range = options.pop("stall_time_range", None)
    duration_range = options.pop("stall_duration_range", None)
    if time_range is not None:
        options["stall_time"] = float(rng.uniform(float(time_range[0]), float(time_range[1])))
    if duration_range is not None:
        options["stall_duration"] = float(
            rng.uniform(float(duration_range[0]), float(duration_range[1]))
        )
    return options


def _sample_stall_options(rng: Any) -> Dict[str, Any]:
    return {
        "stall_agent": "A" if rng.random() < 0.5 else "B",
        "stall_time": float(rng.uniform(0.0, 40.0)),
        "stall_duration": float(rng.uniform(0.5, 20.0)),
    }


# -- asymmetric radii / symmetric: validation -------------------------------------


def _validate_radius_options(
    options: Mapping[str, Any], where: str, error: type
) -> None:
    for key in ("radius_a", "radius_b"):
        if key in options and options[key] is not None:
            value = options[key]
            try:
                radius = float(value)
            except (TypeError, ValueError):
                raise error(f"{where}: {key} must be a number, got {value!r}") from None
            if not (math.isfinite(radius) and radius > 0.0):
                raise error(f"{where}: {key} must be positive and finite, got {value!r}")


def _sample_radius_options(rng: Any) -> Dict[str, Any]:
    return {
        "radius_a": float(rng.uniform(0.5, 4.0)),
        "radius_b": float(rng.uniform(0.5, 4.0)),
    }


def _validate_nothing(options: Mapping[str, Any], where: str, error: type) -> None:
    return None


def _sample_nothing(rng: Any) -> Dict[str, Any]:
    return {}


# -- the shipped families ---------------------------------------------------------

SYMMETRIC = register_scenario(
    ScenarioFamily(
        name="symmetric",
        event_kinds=("meeting",),
        options=(),
        doc="Shared visibility radius; the body of the paper.",
        validate=_validate_nothing,
        sample_options=_sample_nothing,
    )
)

ASYMMETRIC_RADII = register_scenario(
    ScenarioFamily(
        name="asymmetric-radii",
        event_kinds=("meeting", "freeze"),
        options=("radius_a", "radius_b"),
        doc=(
            "Section 5: per-agent visibility radii; the larger-radius agent "
            "freezes the moment it sees the other one."
        ),
        validate=_validate_radius_options,
        sample_options=_sample_radius_options,
    )
)

HETEROGENEOUS_SPEED = register_scenario(
    ScenarioFamily(
        name="heterogeneous-speed",
        event_kinds=("meeting",),
        options=("speed_a", "speed_b"),
        doc=(
            "Per-agent speed factors scale each agent's speed unit; move "
            "durations are unchanged, so faster agents cover more ground per "
            "instruction."
        ),
        validate=_validate_speed_options,
        sample_options=_sample_speed_options,
    )
)

STALLING = register_scenario(
    ScenarioFamily(
        name="stalling",
        event_kinds=("meeting", "stall"),
        options=("stall_agent", "stall_time", "stall_duration") + STALL_RANGE_OPTIONS,
        doc=(
            "Faulty agent: holds its position for a sampled interval starting "
            "at the first segment boundary at or after the sampled onset, then "
            "resumes its program shifted in time."
        ),
        validate=_validate_stall_options,
        sample_options=_sample_stall_options,
    )
)
