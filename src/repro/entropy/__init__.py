"""Entropy failure as the study sees it: how weak keys come to exist.

The paper (Section 2.4) traces the weak-key epidemic to a common pattern on
headless, embedded and low-resource devices: the OS random number generator
has incorporated *no external entropy* by the time an application generates a
long-term key.  Devices with identical boot states then generate identical
first primes, diverge slightly (a clock tick, a packet arrival) during
generation of the second prime, and emit distinct moduli sharing one factor.

:mod:`repro.entropy.keygen` models that outcome directly, as vendor keygen
profiles on :class:`WeakKeyFactory`: every prime is derived from
``(factory seed, profile id, state)``, where the state is the boot state a
device drew from its fleet's small finite set.  The profiles are shared-prime
populations, the IBM nine-prime bug, and healthy generation.
:mod:`repro.entropy.derive` computes each prime from its request, and
derives healthy keys' primes in batches, on spawned workers or in-process.
"""

from repro.entropy.keygen import (
    HealthyProfile,
    IbmNinePrimeProfile,
    KeygenProfile,
    SharedPrimeProfile,
    WeakKeyFactory,
)

__all__ = [
    "HealthyProfile",
    "IbmNinePrimeProfile",
    "KeygenProfile",
    "SharedPrimeProfile",
    "WeakKeyFactory",
]
