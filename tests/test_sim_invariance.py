"""Fuzzed result invariance of the batch engine's performance knobs and modes.

The adaptive-horizon schedule (``initial_horizon``, ``GROWTH_FACTOR``) and
the kernel tile size (``KERNEL_CHUNK_WINDOWS``) are documented as pure
performance knobs: they decide how much trajectory each round maps and how
many windows one kernel call solves, never a result.  The observability
mode (``REPRO_OBS``) and the contract mode (``REPRO_CONTRACTS``) only add
spans and checks.  Drawn here over small sampled workloads, for
``simulate_batch`` and for ``simulate_batch_asymmetric`` at
``r_b / r_a = 0.5``, with closest-approach tracking on or off, every result
field must be bit-identical to the default run's under the same tracking
flag, with or without a stalling agent (whose tables are explicit, not
views).  The first horizon is biased
toward dyadic values and toward a segment boundary of agent B and its
neighbouring floats — where a horizon round trip once slipped by one ulp,
and where the exact range cuts of the views have to hold.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.contracts import core as contracts_core
from repro.core.classification import InstanceClass
from repro.motion.compiler import compile_trajectory
from repro.obs import core as obs_core
from repro.sim import batch, rounds
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import _resolve_blocks

ALGORITHM = get_algorithm("almost-universal-compact")
BUDGETS = dict(max_time=2e4, max_segments=4_000)
_IGNORED = {"elapsed_wall_seconds"}
#: Slow-tier health checks and deadline; the example budget is the active
#: profile's, so the deep CI step runs this property 1,000 times.
PROPERTY_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _bits(value):
    """``value`` with every float spelled exactly (signed zeros, NaN included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    return value


def _fields(result):
    """Every result field but the wall time, as exact bits."""
    return tuple(
        _bits(getattr(result, field.name))
        for field in dataclasses.fields(result)
        if field.name not in _IGNORED
    )


def _outcome_fields(outcome):
    return (
        _fields(outcome.result),
        outcome.frozen_agent,
        _bits(outcome.freeze_time),
        _bits(outcome.freeze_distance),
    )


def _b_boundaries(instance, count=40):
    """The first start times of agent B's trajectory segments."""
    spec = instance.agent_b()
    blocks = _resolve_blocks(ALGORITHM, instance, spec, "B")
    times = []
    for segment in compile_trajectory(spec, blocks):
        times.append(float(segment.start_time))
        if len(times) >= count:
            break
    return [time for time in times if time > 0.0]


@st.composite
def _workloads(draw):
    cls = draw(
        st.sampled_from(
            (InstanceClass.TYPE_1, InstanceClass.TYPE_2, InstanceClass.TYPE_3, InstanceClass.TYPE_4)
        )
    )
    seed = draw(st.integers(0, 2**16))
    instances = InstanceSampler(seed=seed).batch_of_class(cls, draw(st.integers(1, 4)))
    horizon = draw(
        st.one_of(
            st.none(),
            st.integers(-4, 12).map(lambda k: 2.0**k),
            st.floats(min_value=0.5, max_value=5e3),
            st.sampled_from(_b_boundaries(instances[0]) or [1.0]).flatmap(
                lambda at: st.sampled_from(
                    (at, float(np.nextafter(at, 0.0)), float(np.nextafter(at, math.inf)))
                )
            ),
        )
    )
    growth = draw(st.sampled_from((2.0, 3.0, 8.0)))
    chunk = draw(st.sampled_from((1, 7, 256, rounds.KERNEL_CHUNK_WINDOWS)))
    stall = draw(
        st.one_of(
            st.just({}),
            st.builds(
                dict,
                stall_agent=st.sampled_from(("A", "B")),
                stall_time=st.one_of(
                    st.floats(min_value=0.0, max_value=2e3),
                    st.sampled_from(_b_boundaries(instances[0]) or [1.0]),
                ),
                stall_duration=st.floats(min_value=1e-3, max_value=500.0),
            ),
        )
    )
    modes = {
        "obs": draw(st.sampled_from(obs_core.MODES)),
        "contracts": draw(st.sampled_from(("off", "check"))),
        "track_min_distance": draw(st.booleans()),
    }
    return instances, horizon, growth, chunk, stall, modes


def _knobs(monkeypatch, growth, chunk):
    monkeypatch.setattr(batch, "GROWTH_FACTOR", growth)
    monkeypatch.setattr(rounds, "GROWTH_FACTOR", growth)
    monkeypatch.setattr(rounds, "KERNEL_CHUNK_WINDOWS", chunk)


@PROPERTY_SETTINGS
@given(_workloads())
def test_results_do_not_depend_on_the_schedule_or_chunking(workload):
    instances, horizon, growth, chunk, stall, modes = workload
    radius_b = [instance.r * 0.5 for instance in instances]
    options = dict(BUDGETS, track_min_distance=modes["track_min_distance"], **stall)
    with pytest.MonkeyPatch.context() as default:
        default.setattr(rounds, "_BUILDER_CACHE", {})
        reference = simulate_batch(instances, ALGORITHM, **options)
        reference_asym = simulate_batch_asymmetric(
            instances, ALGORITHM, radius_b=radius_b, **options
        )
    with pytest.MonkeyPatch.context() as varied, obs_core._override_mode(
        modes["obs"]
    ), contracts_core._override_mode(modes["contracts"]):
        _knobs(varied, growth, chunk)
        results = simulate_batch(instances, ALGORITHM, initial_horizon=horizon, **options)
        outcomes = simulate_batch_asymmetric(
            instances, ALGORITHM, radius_b=radius_b, initial_horizon=horizon, **options
        )
    assert [_fields(r) for r in results] == [_fields(r) for r in reference]
    assert [_outcome_fields(o) for o in outcomes] == [
        _outcome_fields(o) for o in reference_asym
    ]
