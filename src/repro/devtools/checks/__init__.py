"""Rule families for reprolint.

Importing a submodule registers its rules on the global
:data:`repro.devtools.engine.registry`; :func:`load_all` imports every
family and is idempotent (re-registration is prevented by module caching).
"""

from __future__ import annotations

__all__ = ["load_all"]


def load_all() -> None:
    """Import every rule family so its rules self-register."""
    from repro.devtools.checks import (  # noqa: F401  (import-for-effect)
        asyncsafety,
        crossmodule,
        determinism,
        durability,
        faults,
        telemetry,
    )
