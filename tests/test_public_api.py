"""Smoke tests of the public API surface (the names promised by the README)."""

import importlib
import inspect
import math

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_subpackages_importable(self):
        for module in (
            "repro.util",
            "repro.geometry",
            "repro.core",
            "repro.motion",
            "repro.sim",
            "repro.algorithms",
            "repro.analysis",
            "repro.parallel",
            "repro.campaign",
            "repro.experiments",
            "repro.viz",
        ):
            importlib.import_module(module)

    def test_readme_quickstart_snippet(self):
        instance = repro.Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2, chi=1, t=0.5)
        assert repro.classify(instance).value == "type-4"
        assert repro.is_feasible(instance)
        result = repro.simulate(instance, repro.dedicated_witness(instance))
        assert result.met and result.meeting_time == pytest.approx(1.0)

    def test_docstring_example(self):
        instance = repro.Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2, chi=1)
        assert repro.simulate(instance, repro.LinearProbe()).met

    def test_asymmetric_entry_point(self):
        instance = repro.Instance(r=0.5, x=3.0, y=0.0, t=2.75)
        outcome = repro.simulate_asymmetric(instance, repro.get_algorithm("stay-put"))
        assert isinstance(outcome, repro.AsymmetricOutcome)

    def test_phase_bound_entry_point(self):
        from repro.algorithms import universal_phase_bound

        instance = repro.Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2, chi=1, t=0.5)
        assert universal_phase_bound(instance) >= 1



def test_no_entry_point_takes_a_removed_execution_keyword():
    """The kernel-selection, thread and cache-policy keywords stay gone."""
    removed = {"backend", "kernel_backend", "threads", "kernel_threads", "cache_policy"}
    for entry_point in (
        "repro.geometry.closest_approach:fused_window_batch",
        "repro.geometry.closest_approach:fused_window_batch_dual",
        "repro.sim.rounds:solve_round",
        "repro.sim.batch:simulate_batch",
        "repro.sim.batch_asymmetric:simulate_batch_asymmetric",
        "repro.sim.asymmetric:simulate_asymmetric",
        "repro.sim.engine:RendezvousSimulator",
        "repro.sim.engine:simulate",
        "repro.campaign.orchestrator:run_campaign",
    ):
        module_name, _, attribute = entry_point.partition(":")
        target = getattr(importlib.import_module(module_name), attribute)
        assert not removed & set(inspect.signature(target).parameters), entry_point
