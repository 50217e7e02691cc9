"""Unit tests for the exception hierarchy and its structured context."""

import pytest

from repro.errors import (
    CheckpointError,
    ConfigError,
    FaultInjectedError,
    ProtocolError,
    ReproError,
    ServiceError,
    SimulationError,
)


class TestErrorContext:
    def test_with_context_chains_and_renders(self):
        error = SimulationError("boom").with_context(benchmark="perl", attempt=2)
        assert error.context == {"benchmark": "perl", "attempt": 2}
        assert "boom" in str(error)
        assert "attempt=2" in str(error)

    def test_context_empty_by_default(self):
        assert SimulationError("plain").context == {}
        assert str(SimulationError("plain")) == "plain"

    def test_with_context_returns_the_same_error_and_merges(self):
        error = SimulationError("boom")
        assert error.with_context(a=1) is error
        error.with_context(b="x", a=2)
        assert error.context == {"a": 2, "b": "x"}
        assert str(error) == "boom [a=2, b='x']"

    def test_context_survives_raise(self):
        with pytest.raises(SimulationError) as excinfo:
            raise SimulationError("poisoned").with_context(max_attempts=3)
        assert excinfo.value.context["max_attempts"] == 3


class TestHierarchy:
    @pytest.mark.parametrize("error_type, builtin", [
        (ConfigError, ValueError),
        (SimulationError, RuntimeError),
        (CheckpointError, RuntimeError),
        (ServiceError, RuntimeError),
    ])
    def test_library_errors_are_also_builtin_errors(self, error_type, builtin):
        assert issubclass(error_type, ReproError)
        assert issubclass(error_type, builtin)

    def test_injected_faults_are_simulation_errors(self):
        assert issubclass(FaultInjectedError, SimulationError)

    def test_protocol_errors_are_service_errors(self):
        assert issubclass(ProtocolError, ServiceError)
