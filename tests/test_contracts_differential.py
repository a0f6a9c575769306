"""Differential contract fuzzing: event vs vectorized engines.

Hypothesis draws random small instances and runs them through both engine
families (symmetric and asymmetric).  The assertions are the *declared*
engine-parity contracts (``parity.verdict`` / ``parity.meeting_time`` /
``parity.min_distance`` / ``parity.freeze``) — not hand-rolled comparisons —
so these tests exercise the registry at the same time as verifying the
engines, and a mismatch under ``REPRO_CONTRACTS=raise`` names its invariant.

The closing tests pin the contract machinery itself: the parity checkers
must actually *bite* on fabricated mismatches in every mode.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from profiles import CONTRACT_SETTINGS
from repro.algorithms.registry import get_algorithm
from repro.contracts import (
    ContractViolation,
    check_engine_parity,
    check_outcome_parity,
)
from repro.contracts.core import _override_mode
from repro.core.instance import Instance
from repro.sim.asymmetric import simulate_asymmetric
from repro.sim.batch import simulate_batch
from repro.sim.engine import RendezvousSimulator, simulate
from repro.sim.scenarios import registered_scenarios, scenarios_for_options

MAX_TIME = 1e4
MAX_SEGMENTS = 10_000

#: One shared strategy for "random small instance" — bounded geometry so the
#: budgets above resolve quickly, wide enough to hit every window shape
#: (inside-radius starts, long waits, skewed clocks, both chiralities).
instance_params = st.tuples(
    st.floats(0.3, 1.0),     # r
    st.floats(-4.0, 4.0),    # x
    st.floats(-4.0, 4.0),    # y
    st.floats(0.0, 6.28),    # phi
    st.floats(0.3, 3.0),     # tau
    st.floats(0.3, 3.0),     # v
    st.floats(0.0, 3.0),     # t
    st.sampled_from([-1, 1]),  # chi
)


def _build(params):
    r, x, y, phi, tau, v, t, chi = params
    if math.hypot(x, y) <= 1e-6:
        return None  # degenerate co-located start; Instance would reject r<=dist anyway
    return Instance(r=r, x=x, y=y, phi=phi, tau=tau, v=v, t=t, chi=chi)


class TestSymmetricDifferential:
    @CONTRACT_SETTINGS
    @given(params=instance_params)
    def test_event_vs_vectorized(self, params):
        instance = _build(params)
        if instance is None:
            return
        algorithm = get_algorithm("almost-universal-compact")
        event = RendezvousSimulator(
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        ).run(instance, algorithm)
        batch = simulate_batch(
            [instance], algorithm,
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
        )[0]
        assert check_engine_parity(event, batch)


class TestAsymmetricDifferential:
    @CONTRACT_SETTINGS
    @given(
        params=instance_params,
        radius_a=st.floats(0.3, 1.5),
        radius_b=st.floats(0.3, 1.5),
    )
    def test_event_vs_vectorized_freeze(self, params, radius_a, radius_b):
        instance = _build(params)
        if instance is None:
            return
        algorithm = get_algorithm("almost-universal-compact")
        kwargs = dict(
            radius_a=radius_a, radius_b=radius_b,
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
        )
        event = simulate_asymmetric(instance, algorithm, engine="event", **kwargs)
        batch = simulate_asymmetric(
            instance, algorithm, engine="vectorized", **kwargs
        )
        assert check_outcome_parity(event, batch)


@pytest.mark.parametrize(
    "family", registered_scenarios(), ids=lambda family: family.name
)
class TestScenarioFamilyDifferential:
    """Every registered scenario family fuzzes event-vs-vectorized parity.

    The family's own option sampler draws the scenario parameters, so a new
    ``register_scenario`` call is automatically fuzzed here with zero test
    edits — the registry is the coverage list.  Radius-bearing draws route
    through the asymmetric entry point (freeze semantics included); all
    others compare the unified engine directly against the batch engine.
    """

    @CONTRACT_SETTINGS
    @given(params=instance_params, option_seed=st.integers(0, 2**32 - 1))
    def test_event_vs_vectorized(self, family, params, option_seed):
        instance = _build(params)
        if instance is None:
            return
        options = family.sample_options(np.random.default_rng(option_seed))
        assert family in scenarios_for_options(options) or not options
        algorithm = get_algorithm("almost-universal-compact")
        if "radius_a" in options or "radius_b" in options:
            kwargs = dict(options, max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
            event = simulate_asymmetric(instance, algorithm, engine="event", **kwargs)
            batch = simulate_asymmetric(
                instance, algorithm, engine="vectorized", **kwargs
            )
            assert check_outcome_parity(event, batch)
        else:
            event = simulate(
                instance, algorithm,
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS, **options,
            )
            batch = simulate_batch(
                [instance], algorithm,
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS, **options,
            )[0]
            assert check_engine_parity(event, batch)


class TestParityContractsBite:
    """The checkers must reject fabricated mismatches — in every mode."""

    def _pair(self):
        instance = Instance(r=2.0, x=1.0, y=0.5)
        algorithm = get_algorithm("stay-put")
        result = RendezvousSimulator(max_time=10.0).run(instance, algorithm)
        import copy

        other = copy.copy(result)
        return result, other

    def test_raise_mode_raises_on_verdict_mismatch(self):
        result, other = self._pair()
        other.met = not result.met
        with _override_mode("raise"):
            with pytest.raises(ContractViolation, match="parity.verdict"):
                check_engine_parity(result, other)

    def test_check_mode_returns_false_without_raising(self):
        result, other = self._pair()
        other.meeting_time = (result.meeting_time or 0.0) + 1.0
        with _override_mode("check"):
            assert check_engine_parity(result, other) is False

    def test_off_mode_still_returns_the_verdict(self):
        # Explicit checker calls are unconditional: even with checking off,
        # a differential test asserting the return value stays meaningful.
        result, other = self._pair()
        other.min_distance = result.min_distance + 1.0
        with _override_mode("off"):
            assert check_engine_parity(result, other) is False
        assert check_engine_parity(result, result) is True
