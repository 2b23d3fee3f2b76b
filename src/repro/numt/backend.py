"""Pluggable big-int backend: pure-Python ``int`` or ``gmpy2.mpz``.

Every number-theoretic primitive in :mod:`repro.numt` operates on plain
``int`` values by default — that is the reproducible, dependency-free
baseline.  Real batch-GCD deployments (fastgcd, the paper's cluster) use
GMP, whose multiplication and division are asymptotically and
constant-factor faster; when ``gmpy2`` happens to be importable this
module exposes it behind the same seam so the *identical* tree code runs
on ``mpz`` operands.

The seam is deliberately tiny: a backend is a value wrapper (``wrap`` /
``unwrap``), a ``gcd``, and a flag saying whether the software Barrett
reduction in :mod:`repro.numt.trees` pays off (it does not on gmpy2,
whose native division is already subquadratic).  Nothing else in the
tree algorithms changes — ``*``, ``%`` and ``//`` dispatch through the
operand type.

Selection is per call: an explicit ``backend=`` argument wins,
otherwise the ``REPRO_NUMT_BACKEND`` environment variable, otherwise
pure Python.  There is no process-global active backend; a run picks
its backend with ``--backend`` (``EngineConfig.backend``).  ``gmpy2`` is
never imported unless asked for, and asking for it on a machine without
it is a loud :class:`ValueError`, not a silent fallback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "BigIntBackend",
    "PYTHON_BACKEND",
    "available_backends",
    "resolve_backend",
]

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_NUMT_BACKEND"


@dataclass(frozen=True, slots=True)
class BigIntBackend:
    """One big-int arithmetic implementation.

    Attributes:
        name: registry key (``"python"`` or ``"gmpy2"``).
        wrap: convert a plain ``int`` into the backend's operand type.
        unwrap: convert a backend operand back to a plain ``int``.
        gcd: two-argument gcd on backend operands.
        use_barrett: whether the software Barrett/Newton reduction in
            :func:`repro.numt.trees.remainder_tree_prepared` beats the
            backend's native ``%`` (True only for CPython's schoolbook
            division).
    """

    name: str
    wrap: Callable[[int], Any]
    unwrap: Callable[[Any], int]
    gcd: Callable[[Any, Any], Any]
    use_barrett: bool

    def wrap_all(self, values: Sequence[int]) -> list[Any]:
        """Wrap a sequence, skipping the copy loop for the native backend."""
        if self is PYTHON_BACKEND:
            return list(values)
        return [self.wrap(v) for v in values]


def _python_backend() -> BigIntBackend:
    import math

    return BigIntBackend(
        name="python", wrap=int, unwrap=int, gcd=math.gcd, use_barrett=True
    )


PYTHON_BACKEND = _python_backend()


def _gmpy2_backend() -> BigIntBackend | None:
    try:
        import gmpy2
    except ImportError:
        return None
    return BigIntBackend(
        name="gmpy2",
        wrap=gmpy2.mpz,
        unwrap=int,
        gcd=gmpy2.gcd,
        use_barrett=False,
    )


_LOADERS: dict[str, Callable[[], BigIntBackend | None]] = {
    "python": lambda: PYTHON_BACKEND,
    "gmpy2": _gmpy2_backend,
}


def available_backends() -> list[str]:
    """Names of the backends importable on this machine."""
    return [name for name, load in _LOADERS.items() if load() is not None]


def resolve_backend(name: str | BigIntBackend | None = None) -> BigIntBackend:
    """Resolve a backend by name, environment, or the python default.

    Precedence: an explicit ``name`` (or an already-constructed backend,
    returned as-is), then ``$REPRO_NUMT_BACKEND``, then pure Python.

    Raises:
        ValueError: for an unknown name, or for a known backend whose
            library is not importable here.
    """
    if isinstance(name, BigIntBackend):
        return name
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or None
    if name is None:
        return PYTHON_BACKEND
    loader = _LOADERS.get(name)
    if loader is None:
        raise ValueError(
            f"unknown big-int backend {name!r} "
            f"(known: {', '.join(sorted(_LOADERS))})"
        )
    backend = loader()
    if backend is None:
        raise ValueError(
            f"big-int backend {name!r} is not available "
            f"(is the {name} package installed?)"
        )
    return backend
