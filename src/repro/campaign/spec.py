"""Serializable campaign specifications.

A *campaign* is the unit of long-running simulation work: an **algorithm
grid** (:class:`CampaignArm` — a registry algorithm name plus per-arm
simulator options) crossed with an **instance sampler** (stratified instance
classes, a count per cell, a master seed) under campaign-wide simulator
defaults.  The spec is a plain frozen dataclass round-trippable through JSON:
it is written into the campaign directory verbatim, and everything else —
the shard plan (:mod:`repro.campaign.shards`), every sampled instance, every
:class:`~repro.parallel.runner.BatchTask` — is a pure function of it.  Two
campaign directories holding equal specs therefore hold byte-identical
result columns once complete, which is what makes ``repro campaign resume``
safe: the digest pins the work, the manifest records which of it is done.

Per-arm options are ordinary simulator options (the fields of
:class:`~repro.sim.engine.RendezvousSimulator`, e.g. ``timebase="exact"``,
plus the options the scenario registry declares) with two campaign-only
conveniences resolved at task-build time: ``radius_a_ratio`` /
``radius_b_ratio`` scale each *instance's own* ``r`` into concrete per-agent
radii, which is how a Section 5 radius-ratio sweep serializes without
knowing the sampled instances in advance.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.classification import InstanceClass
from repro.sim.engine import RendezvousSimulator
from repro.sim.scenarios import registered_scenarios, validate_scenario_options
from repro.util.errors import ReproError

__all__ = [
    "CampaignArm",
    "CampaignError",
    "CampaignSpec",
    "UNIFORM_CLASS",
    "RATIO_OPTIONS",
]

#: Pseudo-class name drawing unconstrained samples instead of a stratum.
UNIFORM_CLASS = "uniform"

#: Per-arm option keys resolved against each instance's ``r`` at task-build
#: time (``radius_a = radius_a_ratio * instance.r``), instead of being passed
#: to the engines verbatim.
RATIO_OPTIONS = ("radius_a_ratio", "radius_b_ratio")


class CampaignError(ReproError):
    """A campaign spec, store or manifest is invalid or inconsistent."""


#: Simulator option keys with a numeric domain, validated at spec
#: construction so a bad value fails with a named CampaignError up front —
#: not as a numpy/engine ValueError in the middle of a shard, where the
#: fault-tolerant executor would retry it and quarantine the shard.
_POSITIVE_FINITE_OPTIONS = ("max_time", "radius_a", "radius_b")
_POSITIVE_INT_OPTIONS = ("max_segments",)
_NON_NEGATIVE_OPTIONS = ("radius_slack",)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _known_simulator_options() -> frozenset:
    """Every option key a campaign task may carry.

    The :class:`~repro.sim.engine.RendezvousSimulator` fields (what the event
    fallback is built from), the :data:`RATIO_OPTIONS` conveniences, and the
    options every registered scenario family declares (including derived
    ones such as ``stall_time_range``).  Read at call time, so a family
    registered after import is known too.
    """
    known = {spec_field.name for spec_field in fields(RendezvousSimulator)}
    known.update(RATIO_OPTIONS)
    for family in registered_scenarios():
        known.update(family.options)
    return frozenset(known)


def _validate_simulator_options(options: Mapping[str, Any], where: str) -> None:
    """Reject unknown keys, then range-check the numeric options of a mapping.

    An unknown key (a typo such as ``max_segmnts``) would otherwise reach
    ``RendezvousSimulator(**options)`` as a ``TypeError`` in every attempt
    of every shard, and the executor would quarantine them all.
    """
    unknown = sorted(set(options) - _known_simulator_options())
    if unknown:
        raise CampaignError(
            f"unknown simulator option(s) {', '.join(map(repr, unknown))} "
            f"in {where}"
        )
    for key in _POSITIVE_FINITE_OPTIONS:
        value = options.get(key)
        if value is None:
            continue
        if not _is_number(value) or not (math.isfinite(value) and value > 0.0):
            raise CampaignError(
                f"{key} of {where} must be a positive finite number, got {value!r}"
            )
    for key in _POSITIVE_INT_OPTIONS:
        value = options.get(key)
        if value is None:
            continue
        if not _is_number(value) or value != int(value) or value <= 0:
            raise CampaignError(
                f"{key} of {where} must be a positive integer, got {value!r}"
            )
    for key in _NON_NEGATIVE_OPTIONS:
        value = options.get(key)
        if value is None:
            continue
        if not _is_number(value) or not (math.isfinite(value) and value >= 0.0):
            raise CampaignError(
                f"{key} of {where} must be a non-negative finite number, got {value!r}"
            )
    # Scenario-owned options (speed factors, stall schedules and their
    # derived ranges) are validated by the families that declare them — the
    # same code path the engines use, raised as a CampaignError here.
    validate_scenario_options(options, where, error=CampaignError)


def _json_clean(value: Any, where: str) -> Any:
    """Require ``value`` to round-trip through JSON unchanged (ints/floats/str/bool)."""
    try:
        encoded = json.dumps(value, sort_keys=True)
    except (TypeError, ValueError) as error:
        raise CampaignError(f"{where} must be JSON-serializable: {error}") from None
    if json.loads(encoded) != value:
        raise CampaignError(f"{where} does not round-trip through JSON: {value!r}")
    return value


@dataclass(frozen=True)
class CampaignArm:
    """One cell of the algorithm grid: a registry name plus option overrides.

    ``label`` names the arm in reports and stored columns (defaults to the
    algorithm name); ``options`` are simulator options merged *over* the
    campaign-wide defaults, including the :data:`RATIO_OPTIONS` conveniences.
    """

    algorithm: str
    label: str = ""
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.algorithm:
            raise CampaignError("campaign arms must name an algorithm")
        if not self.label:
            object.__setattr__(self, "label", self.algorithm)
        _json_clean(dict(self.options), f"options of arm {self.label!r}")
        for key in RATIO_OPTIONS:
            if key in self.options:
                ratio = self.options[key]
                if not isinstance(ratio, (int, float)) or not ratio > 0.0:
                    raise CampaignError(f"{key} of arm {self.label!r} must be positive")

    def as_dict(self) -> Dict[str, Any]:
        return {"algorithm": self.algorithm, "label": self.label, "options": dict(self.options)}

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CampaignArm":
        return CampaignArm(
            algorithm=str(data["algorithm"]),
            label=str(data.get("label", "")),
            options=dict(data.get("options", {})),
        )


_CLASS_VALUES = {cls.value for cls in InstanceClass}


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, serializable declaration of one simulation campaign.

    Attributes
    ----------
    name:
        Human-readable campaign identifier (stored, never used for identity —
        the :meth:`digest` is the identity).
    arms:
        The algorithm grid; every arm runs on the *same* instance stream of
        each class, so arms are directly comparable row for row.
    classes:
        Instance strata: :class:`~repro.core.classification.InstanceClass`
        values, or :data:`UNIFORM_CLASS` for unconstrained draws.
    instances_per_cell:
        Instances sampled per class (shared across arms).
    seed:
        Master seed.  Per-instance child seeds are spawned per position
        (:func:`repro.analysis.sampler.spawn_instance_seeds` via one child
        sequence per class), so every shard — and therefore every resume —
        is reproducible in isolation.
    sampler:
        Keyword overrides of :class:`~repro.analysis.sampler.SamplerConfig`
        (``None`` uses the defaults).
    simulator:
        Campaign-wide simulator options (``max_time``, ``max_segments``,
        ``radius_slack``, ``timebase``, ...), merged *under* each arm's.
    shard_size:
        Target instances per shard.  The default sits in the batch engines'
        sweet spot: large enough to amortize compilation, small enough that
        a crash loses at most one shard of work and peak memory stays flat.
        A pure execution knob — results are independent of it by the spawned
        seeding contract.
    """

    name: str
    arms: Tuple[CampaignArm, ...]
    classes: Tuple[str, ...]
    instances_per_cell: int
    seed: int = 0
    sampler: Optional[Dict[str, float]] = None
    simulator: Dict[str, Any] = field(default_factory=dict)
    shard_size: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "classes", tuple(str(c) for c in self.classes))
        if not self.name:
            raise CampaignError("campaigns must be named")
        if not self.arms:
            raise CampaignError("campaigns need at least one arm")
        labels = [arm.label for arm in self.arms]
        if len(set(labels)) != len(labels):
            raise CampaignError(f"arm labels must be unique, got {labels}")
        if not self.classes:
            raise CampaignError("campaigns need at least one instance class")
        for cls in self.classes:
            if cls != UNIFORM_CLASS and cls not in _CLASS_VALUES:
                raise CampaignError(
                    f"unknown instance class {cls!r}; expected {UNIFORM_CLASS!r} or one of "
                    + ", ".join(sorted(_CLASS_VALUES))
                )
        if len(set(self.classes)) != len(self.classes):
            raise CampaignError(f"instance classes must be unique, got {self.classes}")
        if not isinstance(self.instances_per_cell, int) or isinstance(
            self.instances_per_cell, bool
        ) or self.instances_per_cell <= 0:
            raise CampaignError(
                f"instances_per_cell must be a positive integer, "
                f"got {self.instances_per_cell!r}"
            )
        if not isinstance(self.shard_size, int) or isinstance(
            self.shard_size, bool
        ) or self.shard_size <= 0:
            raise CampaignError(
                f"shard_size must be a positive integer, got {self.shard_size!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            # numpy's SeedSequence rejects negative entropy with a bare
            # ValueError only once the first shard samples — fail it here.
            raise CampaignError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if self.sampler is not None:
            _json_clean(dict(self.sampler), "sampler config")
            # Fail on typos now, not mid-campaign: the config constructor
            # validates ranges, and unknown keys raise TypeError.
            self.sampler_config()
        _json_clean(dict(self.simulator), "simulator options")
        for key in RATIO_OPTIONS:
            if key in self.simulator:
                raise CampaignError(f"{key} is a per-arm option, not a campaign default")
        _validate_simulator_options(self.simulator, "campaign defaults")
        # Each arm's *effective* options (campaign defaults merged under the
        # arm's overrides) is what the engines eventually see — validate that
        # view, so a bad campaign-wide default an arm fails to override is
        # caught just as early as a bad per-arm value.
        for index, arm in enumerate(self.arms):
            _validate_simulator_options(self.arm_options(index), f"arm {arm.label!r}")

    # -- derived -------------------------------------------------------------------
    def sampler_config(self):
        """The :class:`~repro.analysis.sampler.SamplerConfig` of this campaign."""
        from repro.analysis.sampler import SamplerConfig

        if self.sampler is None:
            return None
        try:
            return SamplerConfig(**self.sampler)
        except (TypeError, ValueError) as error:
            raise CampaignError(f"invalid sampler config: {error}") from None

    def instance_class(self, class_index: int) -> Optional[InstanceClass]:
        """The :class:`InstanceClass` of a class index (``None`` = uniform)."""
        value = self.classes[class_index]
        return None if value == UNIFORM_CLASS else InstanceClass(value)

    def cells(self) -> List[Tuple[int, int]]:
        """All (arm_index, class_index) cells, row-major in arm order."""
        return [
            (arm_index, class_index)
            for arm_index in range(len(self.arms))
            for class_index in range(len(self.classes))
        ]

    @property
    def total_instances(self) -> int:
        """Simulations the campaign performs (arms x classes x count)."""
        return len(self.arms) * len(self.classes) * self.instances_per_cell

    def arm_options(self, arm_index: int) -> Dict[str, Any]:
        """The arm's effective simulator options (campaign defaults merged under)."""
        options = dict(self.simulator)
        options.update(self.arms[arm_index].options)
        return options

    def validate_algorithms(self) -> None:
        """Resolve every arm's algorithm name against the registry.

        Called by the CLI before any shard executes, so a typo fails the
        campaign up front instead of mid-run (the spec itself stays a pure
        data object — an algorithm registered after spec construction is
        fine as long as it exists by run time).
        """
        from repro.algorithms.registry import get_algorithm

        for arm in self.arms:
            try:
                get_algorithm(arm.algorithm)
            except KeyError as error:
                raise CampaignError(str(error.args[0])) from None

    # -- serialization -------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["arms"] = [arm.as_dict() for arm in self.arms]
        data["classes"] = list(self.classes)
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CampaignSpec":
        try:
            return CampaignSpec(
                name=str(data["name"]),
                arms=tuple(CampaignArm.from_dict(arm) for arm in data["arms"]),
                classes=tuple(data["classes"]),
                instances_per_cell=int(data["instances_per_cell"]),
                seed=int(data.get("seed", 0)),
                sampler=dict(data["sampler"]) if data.get("sampler") is not None else None,
                simulator=dict(data.get("simulator", {})),
                shard_size=int(data.get("shard_size", 256)),
            )
        except KeyError as error:
            raise CampaignError(f"campaign spec is missing field {error}") from None

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise CampaignError(f"campaign spec is not valid JSON: {error}") from None
        return CampaignSpec.from_dict(data)

    def digest(self) -> str:
        """Content address of the campaign's *work* (name excluded).

        Everything that determines a result column enters the hash; the
        display name does not, so renaming a campaign never invalidates its
        finished shards.
        """
        data = self.as_dict()
        data.pop("name")
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
