"""Backend registry behaviour and cross-backend kernel parity.

The kernel backends are interchangeable implementations of the fused window
kernel: every backend available in the environment must reproduce the numpy
reference's verdicts exactly and its offsets/minima to 1e-9 relative, the
selection rules (explicit > environment variable > numpy default) must hold,
and an unavailable plugin must degrade silently to numpy so a campaign
configured for it still runs on a machine without its library.
"""

import math

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.geometry import backends
from repro.geometry.backends import (
    ENV_VAR,
    KernelBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.geometry.closest_approach import (
    fused_window_batch,
    fused_window_batch_dual,
)
from repro.sim.batch import simulate_batch


def _window_problems(count=512, seed=3):
    """A spread of window columns covering hits, misses, statics and grazes."""
    rng = np.random.default_rng(seed)
    rel_x = rng.uniform(-40.0, 40.0, count)
    rel_y = rng.uniform(-40.0, 40.0, count)
    rvel_x = rng.uniform(-4.0, 4.0, count)
    rvel_y = rng.uniform(-4.0, 4.0, count)
    rvel_x[::7] = 0.0  # static relative motion lanes
    rvel_y[::7] = 0.0
    radius = rng.uniform(0.05, 6.0, count)
    radius[::11] = 0.0  # exact-contact lanes
    second = radius * rng.uniform(1.0, 3.0, count)
    durations = rng.uniform(0.0, 30.0, count)
    return rel_x, rel_y, rvel_x, rvel_y, radius, second, durations


class TestRegistry:
    def test_numpy_is_registered_and_default(self):
        assert "numpy" in registered_backends()
        assert "numpy" in available_backends()
        assert isinstance(get_backend(), KernelBackend)
        assert get_backend().name == "numpy"
        assert get_backend("numpy") is get_backend("numpy")  # cached instance

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cuda-warp-drive")

    def test_environment_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert get_backend().name == "numpy"
        monkeypatch.setenv(ENV_VAR, "no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend()

    def test_unavailable_backend_degrades_to_numpy(self):
        class MissingLibraryBackend(NumpyBackend):
            """A plugin whose optional library is absent here."""

            name = "missing-library-test"

            @classmethod
            def is_available(cls):
                return False

        register_backend(MissingLibraryBackend)
        try:
            assert "missing-library-test" in registered_backends()
            assert "missing-library-test" not in available_backends()
            assert get_backend("missing-library-test").name == "numpy"
            # The whole engine path accepts the unavailable name and still runs.
            instance = InstanceSampler(seed=4).batch_of_class(InstanceClass.TYPE_1, 1)[0]
            result = simulate_batch(
                [instance], get_algorithm("almost-universal-compact"),
                max_time=1e4, max_segments=10_000, backend="missing-library-test",
            )[0]
            reference = simulate_batch(
                [instance], get_algorithm("almost-universal-compact"),
                max_time=1e4, max_segments=10_000,
            )[0]
            assert result.met == reference.met
            assert result.meeting_time == reference.meeting_time
        finally:
            backends._REGISTRY.pop("missing-library-test", None)

    def test_backend_instance_passes_through(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_plugin_backend_registration(self):
        class MirrorBackend(NumpyBackend):
            """A ~5-line plugin: the numpy math under a new registry name."""

            name = "mirror-test"

        register_backend(MirrorBackend)
        try:
            assert "mirror-test" in registered_backends()
            assert get_backend("mirror-test").name == "mirror-test"
            rel_x, rel_y, rvel_x, rvel_y, radius, _, durations = _window_problems(64)
            hit, mins, t_star = fused_window_batch(
                rel_x, rel_y, rvel_x, rvel_y, radius, durations,
                backend="mirror-test",
            )
            ref_hit, ref_mins, ref_t = fused_window_batch(
                rel_x, rel_y, rvel_x, rvel_y, radius, durations
            )
            assert np.array_equal(hit, ref_hit, equal_nan=True)
            assert np.array_equal(mins, ref_mins)
            assert np.array_equal(t_star, ref_t)
        finally:
            backends._REGISTRY.pop("mirror-test", None)
            backends._INSTANCES.pop("mirror-test", None)

    def test_nameless_backend_rejected(self):
        class Nameless(KernelBackend):
            pass

        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(Nameless)


@pytest.mark.parametrize("backend_name", available_backends())
class TestBackendParity:
    """Every backend available here must match the numpy reference.

    Identical verdicts (the NaN/hit pattern) and 1e-9-relative offsets are
    the contract that lets ``REPRO_KERNEL_BACKEND`` change performance but
    never results.
    """

    def test_single_radius_kernel(self, backend_name):
        rel_x, rel_y, rvel_x, rvel_y, radius, _, durations = _window_problems()
        hit, mins, t_star = fused_window_batch(
            rel_x, rel_y, rvel_x, rvel_y, radius, durations, backend=backend_name
        )
        ref_hit, ref_mins, ref_t = fused_window_batch(
            rel_x, rel_y, rvel_x, rvel_y, radius, durations, backend="numpy"
        )
        assert np.array_equal(np.isnan(hit), np.isnan(ref_hit))  # verdicts
        valid = ~np.isnan(ref_hit)
        np.testing.assert_allclose(hit[valid], ref_hit[valid], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(mins, ref_mins, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(t_star, ref_t, rtol=1e-9, atol=1e-12)

    def test_dual_radius_kernel(self, backend_name):
        rel_x, rel_y, rvel_x, rvel_y, radius, second, durations = _window_problems()
        hit, hit2, mins, t_star = fused_window_batch_dual(
            rel_x, rel_y, rvel_x, rvel_y, radius, second, durations,
            backend=backend_name,
        )
        ref = fused_window_batch_dual(
            rel_x, rel_y, rvel_x, rvel_y, radius, second, durations,
            backend="numpy",
        )
        for value, reference in zip((hit, hit2, mins, t_star), ref):
            assert np.array_equal(np.isnan(value), np.isnan(reference))
            valid = ~np.isnan(reference)
            np.testing.assert_allclose(
                value[valid], reference[valid], rtol=1e-9, atol=1e-12
            )

    def test_verdict_only_mode(self, backend_name):
        rel_x, rel_y, rvel_x, rvel_y, radius, _, durations = _window_problems(128)
        hit, mins, t_star = fused_window_batch(
            rel_x, rel_y, rvel_x, rvel_y, radius, durations,
            track_closest=False, backend=backend_name,
        )
        assert mins is None and t_star is None
        full_hit, _, _ = fused_window_batch(
            rel_x, rel_y, rvel_x, rvel_y, radius, durations, backend=backend_name
        )
        assert np.array_equal(hit, full_hit, equal_nan=True)

    def test_engine_meeting_times_match(self, backend_name):
        """Whole-engine parity: batch verdicts per backend, 1e-9 meeting times."""
        sampler = InstanceSampler(seed=17)
        instances = []
        for cls in (InstanceClass.TYPE_1, InstanceClass.TYPE_3):
            instances.extend(sampler.batch_of_class(cls, 4))
        algorithm = get_algorithm("almost-universal-compact")
        kwargs = dict(max_time=1e5, max_segments=30_000)
        results = simulate_batch(instances, algorithm, backend=backend_name, **kwargs)
        reference = simulate_batch(instances, algorithm, backend="numpy", **kwargs)
        for res, ref in zip(results, reference):
            assert res.met == ref.met
            assert res.termination == ref.termination
            if ref.met:
                assert res.meeting_time == pytest.approx(
                    ref.meeting_time, rel=1e-9, abs=1e-9
                )
            if math.isfinite(ref.min_distance):
                assert res.min_distance == pytest.approx(
                    ref.min_distance, rel=1e-9, abs=1e-9
                )
