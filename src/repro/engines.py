"""The engine vocabulary shared by the CLI, the runner, the exec layer and
sweep telemetry.

``"fast"`` — the columnar batched kernel of :mod:`repro.fastsim` — is the
default everywhere.  ``"oracle"`` — the reference event-driven
:class:`~repro.sim.simulator.Simulator` — stays selectable by name, and
every fast result is checked against it.  A leaf module, so the low layers
can name the default without importing the kernel.
"""

from __future__ import annotations

from repro.errors import ConfigError

ENGINES = ("oracle", "fast")
DEFAULT_ENGINE = "fast"


def validate_engine(engine: str) -> str:
    """Check an engine name, returning it; raises ConfigError otherwise."""
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}")
    return engine
