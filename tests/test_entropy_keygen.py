"""Tests for keygen profiles: shared primes, the IBM bug, healthy keys,
and the pool that derives healthy keys' primes in batches."""

import math
import multiprocessing
import os
import random
import signal
from itertools import combinations

import pytest

from repro.crypto.primes import is_openssl_style_prime
from repro.entropy import derive
from repro.entropy.derive import PrimePool, derive_healthy_pairs, derive_prime
from repro.entropy.keygen import (
    BATCH_KEYS,
    HealthyProfile,
    IbmNinePrimeProfile,
    SharedPrimeProfile,
    WeakKeyFactory,
)
from repro.telemetry import Telemetry, use_telemetry


@pytest.fixture
def factory(small_openssl_table):
    return WeakKeyFactory(seed=7, prime_bits=48, openssl_table=small_openssl_table)


class TestWeakKeyFactory:
    def test_derived_primes_cached(self, factory):
        a = factory.derive_prime("x", "boot-p", 0, False)
        b = factory.derive_prime("x", "boot-p", 0, False)
        assert a == b

    def test_namespaces_independent(self, factory):
        a = factory.derive_prime("x", "boot-p", 0, False)
        b = factory.derive_prime("y", "boot-p", 0, False)
        c = factory.derive_prime("x", "other", 0, False)
        assert len({a, b, c}) == 3

    def test_deterministic_across_factories(self, small_openssl_table):
        f1 = WeakKeyFactory(seed=7, prime_bits=48, openssl_table=small_openssl_table)
        f2 = WeakKeyFactory(seed=7, prime_bits=48, openssl_table=small_openssl_table)
        assert f1.derive_prime("a", "b", 3, True) == f2.derive_prime("a", "b", 3, True)

    def test_seed_changes_primes(self, small_openssl_table):
        f1 = WeakKeyFactory(seed=7, prime_bits=48, openssl_table=small_openssl_table)
        f2 = WeakKeyFactory(seed=8, prime_bits=48, openssl_table=small_openssl_table)
        assert f1.derive_prime("a", "b", 3, False) != f2.derive_prime("a", "b", 3, False)

    def test_unique_state_never_repeats(self, factory):
        states = {factory.unique_state() for _ in range(100)}
        assert len(states) == 100

    def test_rejects_tiny_primes(self):
        with pytest.raises(ValueError):
            WeakKeyFactory(seed=1, prime_bits=8)


class TestSharedPrimeProfile:
    def test_same_boot_state_shares_first_prime(self, factory):
        profile = SharedPrimeProfile("fleet", boot_states=1, openssl_style=False)
        a = profile.generate(random.Random(1), factory)
        b = profile.generate(random.Random(2), factory)
        g = math.gcd(a.keypair.public.n, b.keypair.public.n)
        assert g > 1
        assert g in (a.keypair.private.p, a.keypair.private.q)

    def test_moduli_distinct_despite_shared_prime(self, factory):
        profile = SharedPrimeProfile("fleet", boot_states=1, openssl_style=False)
        a = profile.generate(random.Random(1), factory)
        b = profile.generate(random.Random(2), factory)
        assert a.keypair.public.n != b.keypair.public.n

    def test_openssl_style_propagates(self, factory, small_openssl_table):
        profile = SharedPrimeProfile("ossl", boot_states=2, openssl_style=True)
        key = profile.generate(random.Random(3), factory)
        assert is_openssl_style_prime(key.keypair.private.p, small_openssl_table)
        assert is_openssl_style_prime(key.keypair.private.q, small_openssl_table)

    def test_metadata(self, factory):
        profile = SharedPrimeProfile("meta", boot_states=5, openssl_style=False)
        key = profile.generate(random.Random(4), factory)
        assert key.weak_by_construction
        assert key.profile_id == "meta"
        assert key.boot_state is not None and 0 <= key.boot_state < 5

    def test_finite_divergence_allows_identical_moduli(self, factory):
        profile = SharedPrimeProfile(
            "dup", boot_states=1, openssl_style=False, divergence_states=1
        )
        a = profile.generate(random.Random(1), factory)
        b = profile.generate(random.Random(2), factory)
        assert a.keypair.public.n == b.keypair.public.n

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SharedPrimeProfile("bad", boot_states=0)
        with pytest.raises(ValueError):
            SharedPrimeProfile("bad", boot_states=2, divergence_states=0)


class TestIbmNinePrimeProfile:
    def test_exactly_36_possible_moduli(self, factory):
        profile = IbmNinePrimeProfile(profile_id="ibm-test")
        moduli = profile.possible_moduli(factory)
        assert len(moduli) == 36
        assert len(set(moduli)) == 36

    def test_generated_keys_stay_in_clique(self, factory):
        profile = IbmNinePrimeProfile(profile_id="ibm-test")
        clique = set(profile.possible_moduli(factory))
        rng = random.Random(9)
        for _ in range(30):
            key = profile.generate(rng, factory)
            assert key.keypair.public.n in clique
            assert key.weak_by_construction

    def test_nine_primes(self, factory):
        profile = IbmNinePrimeProfile(profile_id="ibm-test")
        primes = profile.clique_primes(factory)
        assert len(set(primes)) == 9

    def test_openssl_style_clique(self, factory, small_openssl_table):
        profile = IbmNinePrimeProfile(profile_id="ibm-ossl", openssl_style=True)
        for p in profile.clique_primes(factory):
            assert is_openssl_style_prime(p, small_openssl_table)

    def test_rejects_one_prime(self):
        with pytest.raises(ValueError):
            IbmNinePrimeProfile(profile_id="x", prime_count=1)


class TestHealthyProfile:
    def test_no_shared_factors(self, factory):
        profile = HealthyProfile("healthy")
        rng = random.Random(5)
        moduli = [profile.generate(rng, factory).keypair.public.n for _ in range(20)]
        for a, b in combinations(moduli, 2):
            assert math.gcd(a, b) == 1

    def test_metadata(self, factory):
        key = HealthyProfile("healthy").generate(random.Random(6), factory)
        assert not key.weak_by_construction
        assert key.boot_state is None

    def test_healthy_never_collides_with_weak_pool(self, factory):
        weak = SharedPrimeProfile("pool", boot_states=1, openssl_style=False)
        healthy = HealthyProfile("pool/healthy")
        rng = random.Random(7)
        weak_key = weak.generate(rng, factory)
        for _ in range(10):
            n = healthy.generate(rng, factory).keypair.public.n
            assert math.gcd(n, weak_key.keypair.public.n) == 1


class TestDeferredHealthyKeys:
    def test_generate_derives_nothing_until_a_read(self, factory):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            key = HealthyProfile("lazy").generate(random.Random(1), factory)
            assert telemetry.report().spans == []
            assert key.keypair is key.keypair
        assert [s.name for s in telemetry.report().spans] == ["keygen.derive"]
        assert factory.unique_state() == 2

    def test_first_read_resolves_every_recorded_key_in_one_batch(self, factory):
        profile = HealthyProfile("lazy")
        keys = [profile.generate(random.Random(1), factory) for _ in range(BATCH_KEYS - 1)]
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            first = keys[-1].keypair
            rest = [k.keypair for k in keys]
        spans = [s for s in telemetry.report().spans if s.name == "keygen.derive"]
        assert len(spans) == 1
        assert spans[0].attrs == {
            "requests": 2 * (BATCH_KEYS - 1), "processes": 0,
            "worker_cpu_s": 0.0, "fallback": False,
        }
        assert rest[-1] is first

    def test_full_batches_go_out_as_they_fill(self, factory):
        profile = HealthyProfile("lazy")
        keys = [profile.generate(random.Random(1), factory) for _ in range(2 * BATCH_KEYS + 1)]
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            moduli = [k.keypair.public.n for k in keys]
        spans = [s for s in telemetry.report().spans if s.name == "keygen.derive"]
        assert [s.attrs["requests"] for s in spans] == [2 * BATCH_KEYS, 2 * BATCH_KEYS, 2]
        assert len(set(moduli)) == len(keys)

    def test_pair_is_a_function_of_the_two_states(self, factory):
        key = HealthyProfile("pure").generate(random.Random(1), factory)
        p = derive_prime(factory.seed, factory.prime_bits, "pure", "healthy-p", 0)
        q = derive_prime(factory.seed, factory.prime_bits, "pure", "healthy-q", 1)
        assert key.keypair.public.n == p * q


class TestHealthyCollision:
    """A healthy key whose two primes coincide.

    Seed 19839 at 24 bits is a real collision, found by search: profile
    "healthy" derives 11,990,611 for both its ``healthy-p`` prime at
    state 0 and its ``healthy-q`` prime at state 1, the two states of the
    first key a factory makes.  A stub could not reach a spawned worker,
    which imports the module afresh.
    """

    SEED, BITS, PROFILE = 19839, 24, "healthy"

    def key_and_factory(self, pool):
        factory = WeakKeyFactory(seed=self.SEED, prime_bits=self.BITS, pool=pool)
        key = HealthyProfile(self.PROFILE).generate(random.Random(0), factory)
        return key.keypair, factory

    def test_the_pinned_states_collide(self):
        p = derive_prime(self.SEED, self.BITS, self.PROFILE, "healthy-p", 0)
        q = derive_prime(self.SEED, self.BITS, self.PROFILE, "healthy-q", 1)
        assert p == q == 11_990_611

    def test_retry_gives_the_same_distinct_prime_pooled_and_inline(self):
        inline, _ = self.key_and_factory(None)
        with PrimePool(processes=1) as pool:
            pooled, _ = self.key_and_factory(pool)
        retried = derive_prime(
            self.SEED, self.BITS, self.PROFILE, "healthy-q", 1, retry=1
        )
        assert (inline.private.p, inline.private.q) == (11_990_611, retried)
        assert retried != 11_990_611
        assert pooled == inline

    def test_retry_takes_no_fresh_state(self):
        _, factory = self.key_and_factory(None)
        clean = WeakKeyFactory(seed=self.SEED + 1, prime_bits=self.BITS)
        HealthyProfile(self.PROFILE).generate(random.Random(0), clean).keypair
        assert factory.unique_state() == clean.unique_state() == 2


class TestPrimePool:
    REQUESTS = [(f"p{i % 3}", 2 * i, 2 * i + 1) for i in range(40)]

    def test_pooled_batches_equal_inline(self):
        inline = derive_healthy_pairs(5, 48, self.REQUESTS)
        telemetry = Telemetry()
        with use_telemetry(telemetry), PrimePool(processes=2) as pool:
            tickets = [
                pool.submit(5, 48, self.REQUESTS[i : i + 8]) for i in range(0, 40, 8)
            ]
            pooled = [pair for ticket in tickets for pair in pool.collect(ticket)]
        assert pooled == inline
        spans = [s for s in telemetry.report().spans if s.name == "keygen.derive"]
        assert len(spans) == 5
        assert all(s.attrs["processes"] == 2 and not s.attrs["fallback"] for s in spans)
        assert all(s.attrs["worker_cpu_s"] > 0 for s in spans)
        assert multiprocessing.active_children() == []

    def test_lost_worker_batch_is_derived_in_process(self):
        expected = derive_healthy_pairs(5, 48, self.REQUESTS)
        telemetry = Telemetry()
        with use_telemetry(telemetry), PrimePool(processes=1) as pool:
            (worker,) = multiprocessing.active_children()
            worker.kill()
            worker.join(timeout=10)
            assert not worker.is_alive()
            ticket = pool.submit(5, 48, self.REQUESTS)
            assert pool.collect(ticket) == expected
            assert multiprocessing.active_children() == []
        (span,) = telemetry.report().spans
        assert span.attrs["fallback"] is True

    def test_silent_worker_times_out_and_batch_is_derived_in_process(self, monkeypatch):
        monkeypatch.setattr(derive, "STALL_TIMEOUT_S", 0.2)
        monkeypatch.setattr(derive, "JOIN_TIMEOUT_S", 0.5)
        expected = derive_healthy_pairs(5, 48, self.REQUESTS)
        with PrimePool(processes=1) as pool:
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGSTOP)
            ticket = pool.submit(5, 48, self.REQUESTS)
            assert pool.collect(ticket) == expected
            assert multiprocessing.active_children() == []

    def test_batch_no_worker_started_is_derived_by_the_caller(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry), PrimePool(processes=1) as pool:
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGSTOP)
            try:
                tickets = [pool.submit(5, 48, self.REQUESTS[i : i + 8]) for i in range(0, 40, 8)]
                assert pool.collect(tickets[-1]) == derive_healthy_pairs(
                    5, 48, self.REQUESTS[32:]
                )
            finally:
                os.kill(worker.pid, signal.SIGCONT)
            pooled = [pair for ticket in tickets[:-1] for pair in pool.collect(ticket)]
        assert pooled == derive_healthy_pairs(5, 48, self.REQUESTS[:32])
        first, *rest = telemetry.report().spans
        assert first.attrs["worker_cpu_s"] == 0.0 and not first.attrs["fallback"]
        assert [s.attrs["worker_cpu_s"] > 0 for s in rest[:2]] == [True, True]

    def test_unclosed_pool_warns(self):
        pool = PrimePool(processes=1)
        with pytest.warns(ResourceWarning, match="unclosed PrimePool"):
            pool.__del__()
        pool.close()
        assert multiprocessing.active_children() == []

    def test_batches_collected_after_close_are_derived_in_process(self):
        pool = PrimePool(processes=1)
        ticket = pool.submit(5, 48, self.REQUESTS[:4])
        pool.close()
        pool.close()
        assert multiprocessing.active_children() == []
        assert pool.collect(ticket) == derive_healthy_pairs(5, 48, self.REQUESTS[:4])

    def test_factory_on_a_pool_builds_the_same_keys(self, small_openssl_table):
        def moduli(pool):
            factory = WeakKeyFactory(
                seed=3, prime_bits=48, openssl_table=small_openssl_table, pool=pool
            )
            profile = HealthyProfile("fleet")
            keys = [profile.generate(random.Random(0), factory) for _ in range(70)]
            return [k.keypair.public.n for k in keys]

        with PrimePool(processes=2) as pool:
            pooled = moduli(pool)
        assert pooled == moduli(None)
