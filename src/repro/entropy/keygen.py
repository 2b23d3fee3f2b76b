"""Vendor key-generation profiles built on the entropy-failure model.

A :class:`KeygenProfile` captures *how a product line generates RSA keys*:

- :class:`SharedPrimeProfile` — the canonical flaw (paper Section 2.4).  The
  fleet's possible boot-time pool states form a small finite set; the first
  prime is a deterministic function of the boot state, so two devices that
  boot identically share ``p``.  Divergence (a clock tick, a packet) arrives
  before the second prime, so ``q`` differs — yielding moduli that batch GCD
  can factor.
- :class:`IbmNinePrimeProfile` — the degenerate IBM RSA-II / BladeCenter bug
  (Section 3.3.1): only nine possible primes, hence at most 36 moduli.
- :class:`HealthyProfile` — correctly seeded generation; unique primes.

All primes are derived deterministically from ``(factory seed, profile id,
state)`` so an entire simulated world is reproducible from one integer seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.crypto.primes import generate_prime, openssl_style_prime
from repro.crypto.rsa import DEFAULT_PUBLIC_EXPONENT, RsaKeyPair, keypair_from_primes

__all__ = [
    "GeneratedKey",
    "KeygenProfile",
    "SharedPrimeProfile",
    "IbmNinePrimeProfile",
    "HealthyProfile",
    "WeakKeyFactory",
]


@dataclass(frozen=True, slots=True)
class GeneratedKey:
    """A key pair plus the generation metadata the analysis layer can use.

    Attributes:
        keypair: the generated RSA key pair.
        profile_id: the keygen profile that produced it.
        boot_state: the boot-state index the first prime was derived from
            (None for healthy generation).
        weak_by_construction: True when the first prime came from a finite
            shared pool — i.e. the key is *potentially* factorable if any
            other device drew the same boot state.
    """

    keypair: RsaKeyPair
    profile_id: str
    boot_state: int | None
    weak_by_construction: bool


class KeygenProfile(ABC):
    """How one product line generates RSA keys."""

    #: unique identifier, namespaced per vendor/model (e.g. "juniper-srx")
    profile_id: str

    @abstractmethod
    def generate(self, rng: random.Random, factory: "WeakKeyFactory") -> GeneratedKey:
        """Generate one device key."""


class WeakKeyFactory:
    """Derives and caches deterministic primes for all keygen profiles.

    The factory is the single source of primes in a simulated world.  Primes
    are keyed by ``(profile_id, kind, state)`` and derived by seeding a PRNG
    from a hash of the factory seed and the key — so the same seed always
    rebuilds the same world, and distinct namespaces can never collide on a
    prime (beyond the negligible chance of two PRNG streams finding the same
    prime, ~2**-50 at the default size).

    Args:
        seed: world seed.
        prime_bits: size of every generated prime.  128 bits keeps the pure-
            Python simulation fast; the paper's devices used 512/1024-bit
            primes, and all algorithms here are size-agnostic.
        openssl_table: the small-prime table used for OpenSSL-style
            generation; tests may pass a shorter table for speed.
    """

    def __init__(
        self,
        seed: int,
        prime_bits: int = 128,
        openssl_table: tuple[int, ...] | None = None,
    ) -> None:
        if prime_bits < 24:
            raise ValueError("prime_bits below 24 risks accidental collisions")
        self.seed = seed
        self.prime_bits = prime_bits
        self._openssl_table = openssl_table
        self._cache: dict[tuple[str, str, int], int] = {}
        self._unique_counter = itertools.count()

    def _rng_for(self, profile_id: str, kind: str, state: int) -> random.Random:
        tag = f"repro|{self.seed}|{profile_id}|{kind}|{state}".encode()
        return random.Random(int.from_bytes(hashlib.sha256(tag).digest(), "big"))

    def derive_prime(
        self, profile_id: str, kind: str, state: int, openssl_style: bool
    ) -> int:
        """Return the cached deterministic prime for a (profile, kind, state)."""
        cache_key = (profile_id, kind, state)
        prime = self._cache.get(cache_key)
        if prime is None:
            rng = self._rng_for(profile_id, kind, state)
            while True:
                if openssl_style:
                    if self._openssl_table is not None:
                        prime = openssl_style_prime(
                            self.prime_bits, rng, self._openssl_table
                        )
                    else:
                        prime = openssl_style_prime(self.prime_bits, rng)
                else:
                    prime = generate_prime(self.prime_bits, rng)
                # Every real keygen rejects primes with gcd(p-1, e) != 1, or
                # the private exponent would not exist.
                if (prime - 1) % DEFAULT_PUBLIC_EXPONENT:
                    break
            self._cache[cache_key] = prime
        return prime

    def unique_state(self) -> int:
        """Return a never-repeating state index (for divergent second primes)."""
        return next(self._unique_counter)


@dataclass(frozen=True)
class SharedPrimeProfile(KeygenProfile):
    """The boot-time entropy-hole flaw: finite boot states, shared first primes.

    Args:
        profile_id: namespace for this product line's primes.
        boot_states: how many distinct pool states the fleet can boot into.
            Smaller values mean more collisions, i.e. a higher fraction of
            factorable keys once the population exceeds the state count.
        openssl_style: whether this implementation generates primes the
            OpenSSL way (drives the Table 5 fingerprint).
        divergence_states: size of the second-prime state space.  ``None``
            (the default) gives every key a globally unique second prime;
            a finite value additionally allows *identical moduli* on distinct
            devices (shared default certificates, seen in the wild).
    """

    profile_id: str
    boot_states: int
    openssl_style: bool = True
    divergence_states: int | None = None

    def __post_init__(self) -> None:
        if self.boot_states < 1:
            raise ValueError("boot_states must be >= 1")
        if self.divergence_states is not None and self.divergence_states < 1:
            raise ValueError("divergence_states must be >= 1 when finite")

    def generate(self, rng: random.Random, factory: WeakKeyFactory) -> GeneratedKey:
        boot_state = rng.randrange(self.boot_states)
        p = factory.derive_prime(self.profile_id, "boot-p", boot_state, self.openssl_style)
        while True:
            if self.divergence_states is None:
                q_state = factory.unique_state()
            else:
                q_state = boot_state * self.divergence_states + rng.randrange(
                    self.divergence_states
                )
            q = factory.derive_prime(self.profile_id, "diverged-q", q_state, self.openssl_style)
            if q != p:
                break
        return GeneratedKey(
            keypair=keypair_from_primes(p, q),
            profile_id=self.profile_id,
            boot_state=boot_state,
            weak_by_construction=True,
        )


@dataclass(frozen=True)
class IbmNinePrimeProfile(KeygenProfile):
    """The IBM RSA-II / BladeCenter bug: nine possible primes, 36 moduli.

    "a bug in the prime-generation code ... led to only nine possible primes
    being generated.  Every public key associated with these devices was the
    product of two of these primes." (paper Section 3.3.1)
    """

    profile_id: str = "ibm-rsa2"
    prime_count: int = 9
    #: IBM's implementation satisfies the OpenSSL fingerprint (Table 5).
    openssl_style: bool = True

    def __post_init__(self) -> None:
        if self.prime_count < 2:
            raise ValueError("need at least two primes to form a modulus")

    def clique_primes(self, factory: WeakKeyFactory) -> list[int]:
        """The full set of primes this implementation can ever emit."""
        return [
            factory.derive_prime(self.profile_id, "clique", i, self.openssl_style)
            for i in range(self.prime_count)
        ]

    def possible_moduli(self, factory: WeakKeyFactory) -> list[int]:
        """All C(prime_count, 2) moduli the implementation can produce."""
        primes = self.clique_primes(factory)
        return sorted(
            a * b for i, a in enumerate(primes) for b in primes[i + 1 :]
        )

    def generate(self, rng: random.Random, factory: WeakKeyFactory) -> GeneratedKey:
        i, j = rng.sample(range(self.prime_count), 2)
        p = factory.derive_prime(self.profile_id, "clique", i, self.openssl_style)
        q = factory.derive_prime(self.profile_id, "clique", j, self.openssl_style)
        return GeneratedKey(
            keypair=keypair_from_primes(p, q),
            profile_id=self.profile_id,
            boot_state=min(i, j) * self.prime_count + max(i, j),
            weak_by_construction=True,
        )


@dataclass(frozen=True)
class HealthyProfile(KeygenProfile):
    """Correctly seeded key generation: every prime globally unique.

    Primes are generated plainly: the OpenSSL fingerprint (Table 5) only ever
    observes primes of *factored* keys, and healthy keys are never factored,
    so their generation style is unobservable to the measurement pipeline.
    """

    profile_id: str

    def generate(self, rng: random.Random, factory: WeakKeyFactory) -> GeneratedKey:
        p = factory.derive_prime(
            self.profile_id, "healthy-p", factory.unique_state(), openssl_style=False
        )
        q = factory.derive_prime(
            self.profile_id, "healthy-q", factory.unique_state(), openssl_style=False
        )
        if p == q:  # pragma: no cover - probability ~2**-120
            q = factory.derive_prime(
                self.profile_id, "healthy-q", factory.unique_state(), openssl_style=False
            )
        return GeneratedKey(
            keypair=keypair_from_primes(p, q),
            profile_id=self.profile_id,
            boot_state=None,
            weak_by_construction=False,
        )
