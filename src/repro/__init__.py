"""repro: a full reproduction of "Weak Keys Remain Widespread in Network
Devices" (Hastings, Fried, Heninger — IMC 2016).

The paper measured six years of internet-wide HTTPS scans, factored 313,330
weak RSA moduli with a cluster-parallel batch GCD, fingerprinted the flawed
device implementations, and analysed vendor and end-user (non-)response to
the 2012 weak-key disclosures.

This package rebuilds the measurement system end to end on a simulated
internet (the paper's scan corpus is not redistributable), exercising the
identical algorithms and analysis pipeline:

>>> from repro import StudyConfig, run_study
>>> result = run_study(StudyConfig.tiny())          # doctest: +SKIP
>>> result.table1.vulnerable_moduli_raw             # doctest: +SKIP

Subpackages:

- :mod:`repro.numt` — number theory (trees, primality, gcd machinery).
- :mod:`repro.crypto` — primes, RSA, certificates.
- :mod:`repro.entropy` — vendor keygen profiles: shared primes, the IBM
  nine-prime bug, healthy generation.
- :mod:`repro.core` — batch-GCD engines (naive, classic, clustered).
- :mod:`repro.devices` — vendors, device models, population dynamics.
- :mod:`repro.scans` — internet-wide scan simulation and artifacts.
- :mod:`repro.fingerprint` — implementation fingerprinting.
- :mod:`repro.analysis` — tables, figures, transitions, event studies.
- :mod:`repro.reporting` — text rendering of tables and chart series.
- :mod:`repro.telemetry` — counters, timers, spans; the RunReport every
  instrumented run can emit (``repro-study --telemetry-json``).

The names in ``__all__`` resolve on first access (PEP 562): importing
``repro`` loads no submodule, so each entry point loads only the layers it
runs.  ``repro-batchgcd`` loads ``core``, ``numt``, ``faults`` and
``telemetry``, never the study; ``from repro import run_study`` loads the
pipeline at the import, before any work starts.

See ``ARCHITECTURE.md`` for the guided tour and data-flow diagram.
"""

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core import batch_gcd, clustered_batch_gcd, naive_pairwise_gcd
    from repro.pipeline import StudyResult, StudyWorld, build_world, run_study
    from repro.studyconfig import StudyConfig
    from repro.telemetry import RunReport, Telemetry
    from repro.timeline import HEARTBLEED, STUDY_END, STUDY_START, Month

__version__ = "1.0.0"

#: Each public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "batch_gcd": "repro.core",
    "clustered_batch_gcd": "repro.core",
    "naive_pairwise_gcd": "repro.core",
    "StudyResult": "repro.pipeline",
    "StudyWorld": "repro.pipeline",
    "build_world": "repro.pipeline",
    "run_study": "repro.pipeline",
    "StudyConfig": "repro.studyconfig",
    "RunReport": "repro.telemetry",
    "Telemetry": "repro.telemetry",
    "HEARTBLEED": "repro.timeline",
    "STUDY_END": "repro.timeline",
    "STUDY_START": "repro.timeline",
    "Month": "repro.timeline",
}

__all__ = [
    "HEARTBLEED",
    "Month",
    "RunReport",
    "STUDY_END",
    "STUDY_START",
    "StudyConfig",
    "StudyResult",
    "StudyWorld",
    "Telemetry",
    "batch_gcd",
    "build_world",
    "clustered_batch_gcd",
    "naive_pairwise_gcd",
    "run_study",
    "__version__",
]


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
