"""Unit tests for the contract machinery itself: registry, modes, decorators.

The contracts checked across the kernels and engines only mean something if
the machinery underneath is airtight: mode resolution mirrors the other
``REPRO_*`` knobs, re-declaration can't silently fork an invariant's meaning,
``raise`` mode raises exactly for error-severity violations, and — the
performance promise — decoration under ``off`` returns the undecorated
function so production never pays a wrapper frame.
"""

import pytest

from repro.cli import main
from repro.contracts import core
from repro.contracts.core import (
    Contract,
    ContractViolation,
    _override_mode,
    coverage_rows,
    declare,
    ensures,
    requires,
    resolve_mode,
)
from repro.geometry.backends import get_backend, resolve_kernel_threads
from repro.geometry.closest_approach import fused_window_batch


@pytest.fixture
def scratch_contract():
    """A throwaway contract, deregistered afterwards to keep coverage clean.

    Anything declared here would otherwise appear in the session's coverage
    table and trip the never-fired failure on runs that skip this file.
    """
    created = []

    def factory(contract_id, doc="scratch invariant", **kwargs):
        contract = declare(contract_id, doc, **kwargs)
        created.append(contract_id)
        return contract

    yield factory
    for contract_id in created:
        core._REGISTRY.pop(contract_id, None)


class TestModeResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(core.MODE_ENV, "check")
        assert resolve_mode("raise") == "raise"

    def test_environment_is_consulted_next(self, monkeypatch):
        monkeypatch.setenv(core.MODE_ENV, "check")
        assert resolve_mode() == "check"

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(core.MODE_ENV, raising=False)
        assert resolve_mode() == "off"

    def test_blank_environment_means_default(self, monkeypatch):
        monkeypatch.setenv(core.MODE_ENV, "  ")
        assert resolve_mode() == "off"

    @pytest.mark.parametrize("bad", ["on", "RAISE", "1"])
    def test_unknown_mode_raises(self, monkeypatch, bad):
        with pytest.raises(ValueError, match="must be one of"):
            resolve_mode(bad)
        monkeypatch.setenv(core.MODE_ENV, bad)
        with pytest.raises(ValueError, match=core.MODE_ENV):
            resolve_mode()

    def test_frozen_mode_matches_the_environment_selection(self):
        # conftest.py sets REPRO_CONTRACTS (default raise) before any import;
        # the mode frozen at import must be exactly what the environment
        # selects, and enabled() must agree with it.
        assert core.mode() == resolve_mode()
        assert core.enabled() == (core.mode() != "off")


class TestRegistry:
    def test_declare_is_idempotent_for_identical_declarations(self, scratch_contract):
        first = scratch_contract("test.scratch_idempotent")
        second = declare("test.scratch_idempotent", "scratch invariant")
        assert second is first

    def test_redeclaring_with_different_doc_fails(self, scratch_contract):
        scratch_contract("test.scratch_doc")
        with pytest.raises(ValueError, match="already declared"):
            declare("test.scratch_doc", "a different meaning")

    def test_redeclaring_with_different_severity_fails(self, scratch_contract):
        scratch_contract("test.scratch_severity")
        with pytest.raises(ValueError, match="already declared"):
            declare("test.scratch_severity", "scratch invariant", severity="warn")

    def test_get_unknown_id_raises_keyerror(self):
        with pytest.raises(KeyError):
            core.get("test.never_declared")

    def test_invalid_severity_is_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Contract("test.bad_severity", "doc", severity="fatal")

    def test_coverage_rows_are_sorted_and_complete(self):
        rows = coverage_rows()
        ids = [row["id"] for row in rows]
        assert ids == sorted(ids)
        assert "kernel.chunk_parity" in ids
        assert all(
            set(row) == {"id", "severity", "fired", "violations"} for row in rows
        )


class TestCheckSemantics:
    def test_check_counts_every_evaluation(self, scratch_contract):
        contract = scratch_contract("test.scratch_counts")
        assert contract.check(True) is True
        assert contract.fired == 1 and contract.violations == 0

    def test_raise_mode_raises_with_id_and_detail(self, scratch_contract):
        contract = scratch_contract("test.scratch_raise")
        with _override_mode("raise"):
            with pytest.raises(ContractViolation, match=r"test.scratch_raise.*\[d=3\]"):
                contract.check(False, "d=3")
        assert contract.violations == 1

    def test_check_mode_logs_and_returns_false(self, scratch_contract):
        contract = scratch_contract("test.scratch_checkmode")
        with _override_mode("check"):
            assert contract.check(False, "soft") is False
        assert contract.violations == 1

    def test_warn_severity_never_raises(self, scratch_contract):
        contract = scratch_contract("test.scratch_warn", severity="warn")
        with _override_mode("raise"):
            assert contract.check(False) is False
        assert contract.violations == 1

    def test_violation_carries_the_contract(self, scratch_contract):
        contract = scratch_contract("test.scratch_carrier")
        with _override_mode("raise"):
            with pytest.raises(ContractViolation) as excinfo:
                contract.check(False)
        assert excinfo.value.contract is contract


class TestDecorators:
    def test_off_mode_decoration_returns_the_raw_function(self, scratch_contract):
        contract = scratch_contract("test.scratch_zerocost")

        def plain(x):
            return x + 1

        with _override_mode("off"):
            assert ensures(contract, lambda result, x: result > x)(plain) is plain
            assert requires(contract, lambda x: x >= 0)(plain) is plain

    def test_requires_checks_the_arguments(self, scratch_contract):
        contract = scratch_contract("test.scratch_requires")

        # Decorate inside the override so the test is meaningful whatever
        # mode the suite was launched under.
        with _override_mode("raise"):

            @requires(contract, lambda x: x >= 0, "x must be non-negative")
            def root(x):
                return x ** 0.5

            assert root(4.0) == 2.0
            with pytest.raises(ContractViolation, match="non-negative"):
                root(-1.0)
        assert contract.fired == 2 and contract.violations == 1

    def test_ensures_checks_the_result_first(self, scratch_contract):
        contract = scratch_contract("test.scratch_ensures")

        with _override_mode("raise"):

            @ensures(contract, lambda result, x: result >= x)
            def clamp(x):
                return max(x, 0.0)

            assert clamp(-3.0) == 0.0
        assert contract.fired == 1 and contract.violations == 0

    def test_decorators_accept_a_registered_id(self, scratch_contract):
        scratch_contract("test.scratch_by_id")

        with _override_mode("raise"):

            @requires("test.scratch_by_id", lambda x: x)
            def identity(x):
                return x

            assert identity(True) is True
        assert core.get("test.scratch_by_id").fired == 1


class TestKernelContracts:
    """The fused kernel runs its declared contracts itself when enabled."""

    KERNEL_CONTRACTS = (
        "kernel.hit_within_window",
        "kernel.min_distance_nonneg",
        "kernel.min_leq_endpoints",
    )

    def _solve_once(self):
        # One approaching window: a hit at offset 2 and a closest approach.
        return fused_window_batch([3.0], [0.0], [-1.0], [0.0], 1.0, [5.0])

    def test_enabled_mode_fires_every_kernel_contract(self):
        with _override_mode("raise"):
            before = [core.get(cid).fired for cid in self.KERNEL_CONTRACTS]
            hit, _, _ = self._solve_once()
            after = [core.get(cid).fired for cid in self.KERNEL_CONTRACTS]
        assert hit[0] == 2.0
        assert all(a == b + 1 for a, b in zip(after, before))

    def test_off_mode_runs_no_kernel_contract(self):
        with _override_mode("off"):
            before = [core.get(cid).fired for cid in self.KERNEL_CONTRACTS]
            self._solve_once()
            after = [core.get(cid).fired for cid in self.KERNEL_CONTRACTS]
        assert after == before

    def test_reporters_name_the_one_kernel(self):
        assert get_backend().name == "numpy"
        assert get_backend(None) is get_backend()
        assert resolve_kernel_threads(None) == 1

    @pytest.mark.parametrize("choice", ["numpy", "numexpr", 2])
    def test_reporters_reject_any_selection(self, choice):
        with pytest.raises(ValueError, match="nothing to select"):
            get_backend(choice)
        with pytest.raises(ValueError, match="nothing to select"):
            resolve_kernel_threads(choice)

    def test_reporters_ignore_the_old_environment_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numexpr")
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "many")
        assert get_backend().name == "numpy"
        assert resolve_kernel_threads() == 1


class TestCli:
    def test_contracts_list_prints_the_registry(self, capsys):
        assert main(["contracts", "list"]) == 0
        out = capsys.readouterr().out
        assert f"mode: {core.mode()}" in out
        assert "kernel.min_distance_nonneg" in out
        assert "engine.closest_leq_initial" in out
