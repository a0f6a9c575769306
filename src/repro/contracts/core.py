"""Declared runtime invariants: the registry, mode switch and decorators.

A *contract* is a named, machine-checkable invariant with a stable id, a
severity and a docstring — ``kernel.min_distance_nonneg``,
``engine.closest_leq_initial`` — declared once (module level, usually in
:mod:`repro.contracts.invariants`) and checked wherever the invariant's seam
lives.  The registry is the single source of truth: ``repro contracts list``
prints it, and the pytest plugin (:mod:`repro.contracts.pytest_plugin`) fails
the suite when a registered contract was never exercised, so dead contracts
can't silently rot.

Checking is governed by one process-wide mode, resolved **once at import**
from ``REPRO_CONTRACTS``:

- ``off`` — the production default.  Zero cost: the decorators return the
  undecorated function at decoration time and every instrumentation site
  guards on :func:`enabled` (a module-global read), so no predicate ever
  runs.
- ``check`` — violations are counted and logged as warnings; nothing raises.
  The observability mode for long campaigns.
- ``raise`` — an ``error``-severity violation raises
  :class:`ContractViolation` (``warn`` severity still only logs).  The test
  default: the repo's ``conftest.py`` sets ``REPRO_CONTRACTS=raise`` before
  anything imports.

An unknown mode raises ``ValueError`` — an explicit misconfiguration, not a
degradable preference.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.util.errors import ReproError
from repro.util.logging import get_logger

logger = get_logger("contracts")

__all__ = [
    "MODE_ENV",
    "MODES",
    "Contract",
    "ContractViolation",
    "all_contracts",
    "declare",
    "enabled",
    "ensures",
    "get",
    "mode",
    "requires",
    "reset_counters",
    "resolve_mode",
]

#: Environment variable naming the process-wide checking mode.
MODE_ENV = "REPRO_CONTRACTS"

#: Valid checking modes, weakest first.
MODES = ("off", "check", "raise")


def resolve_mode(value: Optional[str] = None) -> str:
    """Resolve a mode selection: explicit argument > ``REPRO_CONTRACTS`` > off.

    An unknown selection raises ``ValueError`` — misconfiguring the checker
    should fail loudly, not silently disable every invariant.
    """
    source = "mode"
    if value is None:
        raw = os.environ.get(MODE_ENV)
        if raw is None or not raw.strip():
            return "off"
        source = MODE_ENV
        value = raw.strip()
    if value not in MODES:
        raise ValueError(
            f"{source} must be one of {', '.join(MODES)}; got {value!r}"
        )
    return value


#: The process-wide mode, frozen at import.  The decorators consult it at
#: decoration time (zero-cost pass-through when off); instrumentation sites
#: consult it per call through :func:`enabled` (one global read).
_MODE = resolve_mode()


def mode() -> str:
    """The active checking mode (``off`` / ``check`` / ``raise``)."""
    return _MODE


def enabled() -> bool:
    """Whether contract predicates run at all (mode is not ``off``)."""
    return _MODE != "off"


@contextmanager
def _override_mode(value: str):
    """Swap the process mode for a block — **test helper only**.

    Functions decorated while the import-time mode was ``off`` stay
    undecorated (that is the zero-cost guarantee); everything else — inline
    instrumentation, explicit checker calls, wrappers created under an active
    mode — follows the override.
    """
    global _MODE
    previous = _MODE
    _MODE = resolve_mode(value)
    try:
        yield
    finally:
        _MODE = previous


class ContractViolation(ReproError):
    """A declared runtime invariant did not hold.

    ``contract`` is the violated :class:`Contract`; the message carries its
    id and the site-provided detail.  Raised only in ``raise`` mode and only
    for ``error``-severity contracts.
    """

    def __init__(self, contract: "Contract", detail: str = "") -> None:
        message = f"contract {contract.id} violated: {contract.doc}"
        if detail:
            message += f" [{detail}]"
        super().__init__(message)
        self.contract = contract


class Contract:
    """One named invariant: stable id, severity, docstring, firing counters.

    ``severity`` is ``"error"`` (raises in ``raise`` mode) or ``"warn"``
    (always just logs).  ``fired`` counts every evaluation of the invariant —
    the coverage signal the pytest plugin reports on — and ``violations``
    counts the evaluations that failed.
    """

    __slots__ = ("id", "doc", "severity", "fired", "violations")

    def __init__(self, contract_id: str, doc: str, severity: str = "error") -> None:
        if severity not in ("error", "warn"):
            raise ValueError(f"severity must be 'error' or 'warn', got {severity!r}")
        self.id = contract_id
        self.doc = doc
        self.severity = severity
        self.fired = 0
        self.violations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Contract({self.id!r}, severity={self.severity!r}, fired={self.fired})"

    def check(self, condition: bool, detail: str = "") -> bool:
        """Record one evaluation; handle a violation according to the mode.

        Returns the (boolean) condition, so explicit checker helpers can be
        asserted on directly even in modes that do not raise.
        """
        self.fired += 1
        if condition:
            return True
        self.violations += 1
        if _MODE == "raise" and self.severity == "error":
            raise ContractViolation(self, detail)
        logger.warning(
            "contract %s violated: %s%s",
            self.id,
            self.doc,
            f" [{detail}]" if detail else "",
        )
        return False


_REGISTRY: Dict[str, Contract] = {}


def declare(contract_id: str, doc: str, *, severity: str = "error") -> Contract:
    """Register (or return the already-registered) contract ``contract_id``.

    Re-declaring an id is allowed only with an identical doc and severity —
    two modules silently disagreeing about what an invariant *means* is
    itself a bug worth failing on.
    """
    existing = _REGISTRY.get(contract_id)
    if existing is not None:
        if existing.doc != doc or existing.severity != severity:
            raise ValueError(
                f"contract {contract_id!r} is already declared with a different "
                "doc or severity"
            )
        return existing
    contract = Contract(contract_id, doc, severity)
    _REGISTRY[contract_id] = contract
    return contract


def get(contract_id: str) -> Contract:
    """The registered contract with this id; ``KeyError`` when unknown."""
    return _REGISTRY[contract_id]


def all_contracts() -> Tuple[Contract, ...]:
    """Every registered contract, sorted by id."""
    return tuple(_REGISTRY[key] for key in sorted(_REGISTRY))


def reset_counters() -> None:
    """Zero every contract's ``fired``/``violations`` counters."""
    for contract in _REGISTRY.values():
        contract.fired = 0
        contract.violations = 0


def _as_contract(contract) -> Contract:
    return contract if isinstance(contract, Contract) else get(contract)


def requires(contract, predicate: Callable[..., bool], detail: str = ""):
    """Precondition decorator: ``predicate(*args, **kwargs)`` must hold.

    ``contract`` is a :class:`Contract` or a registered id.  Zero-cost when
    the import-time mode is ``off``: the undecorated function is returned, so
    production call sites never even see a wrapper frame.
    """
    contract = _as_contract(contract)

    def decorate(func):
        if _MODE == "off":
            return func

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if _MODE != "off":
                contract.check(bool(predicate(*args, **kwargs)), detail)
            return func(*args, **kwargs)

        return wrapper

    return decorate


def ensures(contract, predicate: Callable[..., bool], detail: str = ""):
    """Postcondition decorator: ``predicate(result, *args, **kwargs)`` must hold.

    Same mode semantics as :func:`requires`; the predicate receives the
    return value first, then the call's original arguments.
    """
    contract = _as_contract(contract)

    def decorate(func):
        if _MODE == "off":
            return func

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            if _MODE != "off":
                contract.check(bool(predicate(result, *args, **kwargs)), detail)
            return result

        return wrapper

    return decorate


def coverage_rows() -> List[Dict[str, object]]:
    """Machine-readable firing report, one row per contract (sorted by id)."""
    return [
        {
            "id": contract.id,
            "severity": contract.severity,
            "fired": contract.fired,
            "violations": contract.violations,
        }
        for contract in all_contracts()
    ]
