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
kind, state)`` (:func:`repro.entropy.derive.derive_prime`) so an entire
simulated world is reproducible from one integer seed, wherever each prime
is computed.

A healthy key is a pure function of its two unique states.
:meth:`HealthyProfile.generate` takes both states when it is called and
records the request on its factory; the key pair is built when the
request's batch resolves, at the latest on the first read of
:attr:`GeneratedKey.keypair`.  The factory's
:class:`~repro.entropy.derive.PrimePool` derives each batch, on spawned
workers when the study opened them and in-process otherwise, with the
same result.  When a healthy key's two primes coincide (about 2**-42 per
key at 48 bits, 2**-57 at 64 bits), ``q`` is derived again from the same
request with a retry index in its tag, never from a fresh state, so the
state counter advances by exactly two per healthy key.  Weak-profile keys
stay eager: their retry loops draw from the population rng.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.crypto.rsa import RsaKeyPair, keypair_from_primes
from repro.entropy.derive import HealthyRequest, PrimePool, derive_prime

__all__ = [
    "BATCH_KEYS",
    "GeneratedKey",
    "KeygenProfile",
    "PendingKeyPair",
    "SharedPrimeProfile",
    "IbmNinePrimeProfile",
    "HealthyProfile",
    "WeakKeyFactory",
]


#: Healthy keys per prime batch.  A pooled batch costs one round trip, and
#: 32 keys of 64-bit primes keep a worker busy ~7 ms.
BATCH_KEYS = 32


class _Batch:
    """Healthy-key requests derived together, and their primes once resolved."""

    __slots__ = ("requests", "ticket", "pairs")

    def __init__(self) -> None:
        self.requests: list[HealthyRequest] = []
        self.ticket: int | None = None
        self.pairs: list[tuple[int, int]] | None = None


class PendingKeyPair:
    """One recorded healthy-key request: its key pair once its batch resolves."""

    __slots__ = ("_factory", "_batch", "_index")

    def __init__(self, factory: "WeakKeyFactory", batch: _Batch, index: int) -> None:
        self._factory = factory
        self._batch = batch
        self._index = index

    def resolve(self) -> RsaKeyPair:
        """Build the key pair, waiting for the batch if it has not resolved."""
        p, q = self._factory._resolve(self._batch)[self._index]
        return keypair_from_primes(p, q)


class GeneratedKey:
    """A key pair plus the generation metadata the analysis layer can use.

    Attributes:
        keypair: the generated RSA key pair (a healthy key's is built from
            its batch on the first read).
        profile_id: the keygen profile that produced it.
        boot_state: the boot-state index the first prime was derived from
            (None for healthy generation).
        weak_by_construction: True when the first prime came from a finite
            shared pool — i.e. the key is *potentially* factorable if any
            other device drew the same boot state.
    """

    __slots__ = ("_keypair", "profile_id", "boot_state", "weak_by_construction")

    def __init__(
        self,
        keypair: RsaKeyPair | PendingKeyPair,
        profile_id: str,
        boot_state: int | None,
        weak_by_construction: bool,
    ) -> None:
        self._keypair = keypair
        self.profile_id = profile_id
        self.boot_state = boot_state
        self.weak_by_construction = weak_by_construction

    @property
    def keypair(self) -> RsaKeyPair:
        keypair = self._keypair
        if isinstance(keypair, PendingKeyPair):
            keypair = self._keypair = keypair.resolve()
        return keypair

    def __repr__(self) -> str:
        return (
            f"GeneratedKey(profile_id={self.profile_id!r}, "
            f"boot_state={self.boot_state!r}, "
            f"weak_by_construction={self.weak_by_construction!r})"
        )


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
        pool: where healthy-key batches are derived (None = in-process,
            when a batch is first read).
    """

    def __init__(
        self,
        seed: int,
        prime_bits: int = 128,
        openssl_table: tuple[int, ...] | None = None,
        pool: PrimePool | None = None,
    ) -> None:
        if prime_bits < 24:
            raise ValueError("prime_bits below 24 risks accidental collisions")
        self.seed = seed
        self.prime_bits = prime_bits
        self.pool = pool if pool is not None else PrimePool()
        self._openssl_table = openssl_table
        self._cache: dict[tuple[str, str, int], int] = {}
        self._unique_counter = itertools.count()
        self._recording = _Batch()

    def derive_prime(
        self, profile_id: str, kind: str, state: int, openssl_style: bool
    ) -> int:
        """Return the cached deterministic prime for a (profile, kind, state)."""
        cache_key = (profile_id, kind, state)
        prime = self._cache.get(cache_key)
        if prime is None:
            prime = derive_prime(
                self.seed, self.prime_bits, profile_id, kind, state,
                openssl_style, self._openssl_table,
            )
            self._cache[cache_key] = prime
        return prime

    def unique_state(self) -> int:
        """Return a never-repeating state index (for divergent second primes)."""
        return next(self._unique_counter)

    def request_healthy(self, profile_id: str, p_state: int, q_state: int) -> PendingKeyPair:
        """Record one healthy key's request; a full batch goes to the pool."""
        batch = self._recording
        pending = PendingKeyPair(self, batch, len(batch.requests))
        batch.requests.append((profile_id, p_state, q_state))
        if len(batch.requests) >= BATCH_KEYS:
            self.flush()
        return pending

    def flush(self) -> None:
        """Send every recorded request to the pool now."""
        batch = self._recording
        if batch.requests:
            batch.ticket = self.pool.submit(self.seed, self.prime_bits, batch.requests)
            self._recording = _Batch()

    def _resolve(self, batch: _Batch) -> list[tuple[int, int]]:
        """The batch's primes; its first read sends every recorded request."""
        if batch.pairs is None:
            self.flush()
            batch.pairs = self.pool.collect(batch.ticket)
        return batch.pairs


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
        p_state = factory.unique_state()
        q_state = factory.unique_state()
        return GeneratedKey(
            keypair=factory.request_healthy(self.profile_id, p_state, q_state),
            profile_id=self.profile_id,
            boot_state=None,
            weak_by_construction=False,
        )
