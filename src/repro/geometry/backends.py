"""Pluggable element-wise backends for the fused window kernel.

The fused window kernel (:func:`repro.geometry.closest_approach.fused_window_batch`
and its dual-radius variant) is pure element-wise array math over ~10 float64
columns.  This module makes its implementation a *plugin*: backends register
under a name, the public kernel entry points dispatch to the selected backend
per call, and the batch driver hands the selection through untouched, one
call per kernel chunk of at most ``KERNEL_CHUNK_WINDOWS`` windows.  Only the
numpy reference ships: the kernel is about a tenth of a batch run's wall
time, too little for an accelerator library to pay for itself.

Selection, in priority order:

1. an explicit ``backend=`` argument (a name or a :class:`KernelBackend`
   instance) on the kernel entry points / batch engine / CLI
   ``--kernel-backend``;
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the ``"numpy"`` default.

An *unknown* name raises ``ValueError``; a registered backend whose
:meth:`~KernelBackend.is_available` says no (an optional library missing)
degrades silently to numpy.  The parity contract is part of the interface:
every backend must reproduce the numpy backend's verdicts exactly and its
hit/closest-approach offsets to 1e-9 relative (pinned by
``tests/test_geometry_backends.py`` for every available backend).

A new backend subclasses :class:`KernelBackend`, implements
:meth:`~KernelBackend.solve` over the relative-coordinate columns, and is
passed to :func:`register_backend`.  Its ``solve`` must be safe to call from
several threads at once: ``kernel_threads > 1`` fans the chunks out over a
thread pool.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Type, Union

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_kernel_solution
from repro.util.logging import get_logger

logger = get_logger("geometry.backends")

__all__ = [
    "ENV_VAR",
    "THREADS_ENV_VAR",
    "KernelBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_kernel_threads",
]

#: Environment variable naming the process-wide default backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Environment variable naming the process-wide default kernel thread count.
THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"


def resolve_kernel_threads(value: Optional[int] = None) -> int:
    """Resolve a kernel thread-count selection to a positive int.

    ``None`` consults ``REPRO_KERNEL_THREADS`` and falls back to 1 (serial
    chunk dispatch, the default everywhere).  Selection priority mirrors the
    backend knob: explicit ``kernel_threads=`` argument > environment
    variable > serial.  Thread counts never change results — chunks write
    disjoint output slices and numpy releases the GIL, so the threaded
    dispatch is bit-identical to the serial one; only wall time depends on
    the setting.  A non-integer or non-positive selection raises
    ``ValueError`` (an explicit misconfiguration, unlike an *unavailable*
    backend, which degrades).
    """
    source = "kernel_threads"
    if value is None:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is None or not raw.strip():
            return 1
        source = THREADS_ENV_VAR
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    threads = int(value)
    if threads < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return threads


class KernelBackend:
    """One implementation of the fused window kernel's array math.

    Subclasses implement :meth:`solve` — the whole fused computation on
    relative coordinates — and may override :meth:`is_available` when the
    implementation depends on an optional library.  Inputs are validated by
    the public entry points in :mod:`repro.geometry.closest_approach`; ``solve``
    may assume non-negative radii and durations and same-length columns.
    """

    #: Registry name; subclasses must override.
    name: str = ""

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    def solve(
        self,
        rel_x: np.ndarray,
        rel_y: np.ndarray,
        rvel_x: np.ndarray,
        rvel_y: np.ndarray,
        radius: np.ndarray,
        second_radius: Optional[np.ndarray],
        durations: np.ndarray,
        track_closest: bool,
    ) -> Tuple[
        np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]
    ]:
        """Solve all window quadratics; returns ``(hit, second_hit, min_distance, t_star)``.

        ``hit`` holds first-hit offsets at ``radius`` with ``NaN`` where the
        window never reaches it; ``second_hit`` answers the same for
        ``second_radius`` (``None`` when no second column was given);
        ``min_distance``/``t_star`` are the per-window closest approach
        (``None`` when untracked).
        """
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """The reference implementation: plain numpy, one ufunc at a time.

    The arithmetic mirrors the scalar kernels of
    :mod:`repro.geometry.closest_approach` operation for operation, so batch
    verdicts agree with the event engine bit-for-bit on identical window
    inputs.  Every other backend is measured against this one.
    """

    name = "numpy"

    @staticmethod
    def _first_hit(speed_sq, dot_pv, rel_x, rel_y, radius, durations):
        """First-hit offsets from precomputed dot products, one radius column.

        In-place ufuncs reuse temporaries where the value is no longer needed;
        every element still goes through exactly the scalar kernel's float
        operations, so verdicts stay bit-identical to the event engine.
        """
        c = rel_x * rel_x
        c += rel_y * rel_y
        c -= radius * radius
        inside = c <= 0.0
        b = 2.0 * dot_pv
        disc = b * b
        disc -= 4.0 * speed_sq * c
        approaching = ~inside
        approaching &= speed_sq > 0.0
        approaching &= b < 0.0
        approaching &= disc >= 0.0
        # Guard the sqrt/division on non-candidate windows; the formula matches
        # the numerically stable smaller root of the scalar kernel.
        safe_disc = np.where(approaching, disc, 0.0)
        np.sqrt(safe_disc, out=safe_disc)
        safe_disc -= b
        denominator = np.where(approaching, safe_disc, 1.0)
        t_hit = 2.0 * c
        t_hit /= denominator
        hit = np.where(
            approaching & (t_hit <= durations), np.maximum(t_hit, 0.0), np.nan
        )
        return np.where(inside, 0.0, hit)

    @staticmethod
    def _closest(speed_sq, dot_pv, rel_x, rel_y, rvel_x, rvel_y, durations):
        """Closest-approach half of the fused kernel, from precomputed dots.

        ``sqrt(x*x + y*y)`` stands in for ``hypot`` — a couple of ulps apart
        at these (overflow-safe) magnitudes, far inside both the kernel
        suite's 1e-12 and the engines' 1e-9 parity tolerances, and several
        times faster than libm's hypot.
        """
        safe_speed_sq = np.where(speed_sq > 0.0, speed_sq, 1.0)
        t_star = np.where(speed_sq > 0.0, -dot_pv / safe_speed_sq, 0.0)
        t_star = np.clip(t_star, 0.0, durations)
        at_x = t_star * rvel_x
        at_x += rel_x
        at_y = t_star * rvel_y
        at_y += rel_y
        at_x *= at_x
        at_y *= at_y
        at_x += at_y
        min_distance = np.sqrt(at_x, out=at_x)
        return min_distance, t_star

    def solve(
        self, rel_x, rel_y, rvel_x, rvel_y, radius, second_radius, durations,
        track_closest,
    ):
        speed_sq = rvel_x * rvel_x + rvel_y * rvel_y
        dot_pv = rel_x * rvel_x + rel_y * rvel_y
        hit = self._first_hit(speed_sq, dot_pv, rel_x, rel_y, radius, durations)
        second_hit = None
        if second_radius is not None:
            if second_radius is radius or np.array_equal(radius, second_radius):
                # Equal columns (degenerate equal-radius sweeps, post-freeze
                # rounds of the asymmetric engine) answer both questions with
                # one root extraction; the equality check is a cheap pass.
                second_hit = hit
            else:
                second_hit = self._first_hit(
                    speed_sq, dot_pv, rel_x, rel_y, second_radius, durations
                )
        if not track_closest:
            return hit, second_hit, None, None
        min_distance, t_star = self._closest(
            speed_sq, dot_pv, rel_x, rel_y, rvel_x, rvel_y, durations
        )
        return hit, second_hit, min_distance, t_star


class _CheckedBackend(KernelBackend):
    """Transparent proxy applying the kernel contracts to every ``solve``.

    Installed by :func:`get_backend` when contract checking is enabled, so
    every backend — numpy and any registered plugin — is held to the same
    declared invariants (``kernel.min_distance_nonneg``,
    ``kernel.min_leq_endpoints``, ``kernel.hit_within_window``) without any
    backend opting in.  Never registered; never constructed in ``off`` mode,
    so the production path keeps raw instances.
    """

    def __init__(self, inner: KernelBackend) -> None:
        self.inner = inner
        self.name = inner.name

    @classmethod
    def is_available(cls) -> bool:  # pragma: no cover - proxy is never registered
        return True

    def solve(
        self, rel_x, rel_y, rvel_x, rvel_y, radius, second_radius, durations,
        track_closest,
    ):
        hit, second_hit, min_distance, t_star = self.inner.solve(
            rel_x, rel_y, rvel_x, rvel_y, radius, second_radius, durations,
            track_closest,
        )
        if _contracts.enabled():
            check_kernel_solution(
                hit, second_hit, min_distance, t_star,
                rel_x, rel_y, rvel_x, rvel_y, durations,
            )
        return hit, second_hit, min_distance, t_star


_REGISTRY: Dict[str, Type[KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
_CHECKED_INSTANCES: Dict[str, KernelBackend] = {}
_FALLBACK_WARNED: set = set()


def register_backend(backend: Type[KernelBackend]) -> Type[KernelBackend]:
    """Register a :class:`KernelBackend` subclass under its ``name``.

    Usable as a decorator.  Registration is unconditional — availability is
    probed at selection time, so a backend whose library appears later in the
    process lifetime (or test monkeypatching) needs no re-registration.
    """
    if not backend.name:
        raise ValueError("kernel backends must declare a non-empty name")
    _REGISTRY[backend.name] = backend
    _INSTANCES.pop(backend.name, None)
    _CHECKED_INSTANCES.pop(backend.name, None)
    return backend


register_backend(NumpyBackend)


def registered_backends() -> Tuple[str, ...]:
    """Names of all registered backends, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends that can run in this environment."""
    return tuple(name for name, cls in _REGISTRY.items() if cls.is_available())


def get_backend(
    backend: Union[str, KernelBackend, None] = None,
) -> KernelBackend:
    """Resolve a backend selection to a live :class:`KernelBackend` instance.

    ``None`` consults ``REPRO_KERNEL_BACKEND`` and falls back to ``"numpy"``;
    a :class:`KernelBackend` instance passes through untouched (which is how
    the batch driver resolves once per run and stays chunk-granular without
    re-resolving per kernel call).  An unknown name raises ``ValueError``; a
    registered-but-unavailable name degrades silently to numpy (logged once),
    so a campaign configured for a plugin still runs on a machine without its
    library.
    """
    if isinstance(backend, KernelBackend):
        return backend
    name = backend if backend is not None else os.environ.get(ENV_VAR) or "numpy"
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            + ", ".join(sorted(_REGISTRY))
        )
    if not cls.is_available():
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            logger.debug(
                "kernel backend %r is not available in this environment; "
                "falling back to numpy", name,
            )
        cls = _REGISTRY["numpy"]
    instance = _INSTANCES.get(cls.name)
    if instance is None:
        instance = _INSTANCES[cls.name] = cls()
    if _contracts.enabled():
        # Test/diagnostic modes get the contract-checking proxy; `off` (the
        # production default) returns the raw instance — zero indirection.
        checked = _CHECKED_INSTANCES.get(cls.name)
        if checked is None:
            checked = _CHECKED_INSTANCES[cls.name] = _CheckedBackend(instance)
        return checked
    return instance
