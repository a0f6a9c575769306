"""Identity of the fused window kernel, for run reports.

The fused window kernel has one implementation, plain numpy
(:func:`repro.geometry.closest_approach.solve_windows`), dispatched serially
one tile at a time by :func:`repro.sim.rounds.solve_round`.  Benchmark and
snapshot reports still record which kernel and how many kernel threads a
measurement ran with; the two accessors here answer that without any
selection: neither reads an environment variable or takes a choice.
"""

from __future__ import annotations

from types import SimpleNamespace

__all__ = ["get_backend", "resolve_kernel_threads"]

_KERNEL = SimpleNamespace(name="numpy")


def _reject_choice(what: str, value: object) -> None:
    if value is not None:
        raise ValueError(
            f"the {what} is fixed; there is nothing to select (got {value!r})"
        )


def get_backend(backend: None = None) -> SimpleNamespace:
    """The fused window kernel's identity: an object whose ``name`` is ``"numpy"``.

    ``perfbench/common.py``, ``scripts/bench_snapshot.py`` and
    ``benchmarks/bench_asymmetric.py`` read that ``name`` into their
    environment records.  Any argument other than ``None`` raises
    ``ValueError``.
    """
    _reject_choice("kernel backend", backend)
    return _KERNEL


def resolve_kernel_threads(value: None = None) -> int:
    """The kernel's thread count: always 1, tiles are solved serially.

    ``perfbench/common.py``, ``scripts/bench_snapshot.py`` and
    ``benchmarks/bench_asymmetric.py`` read it into their environment
    records.  Any argument other than ``None`` raises ``ValueError``.
    """
    _reject_choice("kernel thread count", value)
    return 1
