"""Tests for the HTTPS scanner: coverage, artifacts, chain reconstruction."""

import random

import pytest

from repro.devices.models import (
    DeviceModel,
    KeygenKind,
    KeygenSpec,
    PopulationSchedule,
    SubjectStyle,
)
from repro.devices.population import IpAllocator, ModelPopulation
from repro.entropy.keygen import WeakKeyFactory
from repro.scans.background import build_ca_pool
from repro.scans.records import CertificateStore
from repro.scans.rimon import RimonInterceptor
from repro.scans.scanner import HttpsScanner, reconstruct_chains
from repro.scans.sources import ScanSource
from repro.timeline import Month


def make_source(coverage=1.0, intermediates=False):
    return ScanSource(
        name="TEST",
        first=Month(2012, 1),
        last=Month(2016, 1),
        coverage=coverage,
        includes_unchained_intermediates=intermediates,
    )


@pytest.fixture
def factory(small_openssl_table):
    return WeakKeyFactory(seed=17, prime_bits=48, openssl_table=small_openssl_table)


def make_population(factory, size=40, ca_pool=None, ca_fraction=0.0,
                    style=SubjectStyle.VENDOR_IN_O):
    # Sizes are in *simulated* units: the schedule is expressed at paper
    # scale (size * divisor) so the divisor-7 population holds `size` units.
    model = DeviceModel(
        model_id="scan-test",
        vendor="Juniper",
        subject_style=style,
        keygen=KeygenSpec(kind=KeygenKind.HEALTHY, profile_id="scan-test"),
        schedule=PopulationSchedule(points=((Month(2012, 1), size * 7),)),
    )
    population = ModelPopulation(
        model=model,
        divisor=7,
        factory=factory,
        allocator=IpAllocator(random.Random(8)),
        rng=random.Random(9),
        ca_pool=ca_pool,
        ca_fraction=ca_fraction,
    )
    population.step(Month(2012, 1))
    return population


class TestCoverage:
    def test_full_coverage_sees_everything(self, factory):
        population = make_population(factory)
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1))
        snapshot = scanner.scan(Month(2012, 2), make_source(1.0), [(population, False)])
        assert snapshot.host_count == population.online_count()

    def test_partial_coverage_misses_hosts(self, factory):
        population = make_population(factory, size=200)
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1))
        snapshot = scanner.scan(Month(2012, 2), make_source(0.6), [(population, False)])
        assert 0 < snapshot.host_count < population.online_count()
        assert abs(snapshot.host_count / population.online_count() - 0.6) < 0.2

    def test_weights_carried_from_divisor(self, factory):
        population = make_population(factory)
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1))
        scanner.scan(Month(2012, 2), make_source(), [(population, False)])
        assert all(e.weight == 7 for e in store.entries())


class TestBitErrors:
    def test_bit_errors_injected_at_rate(self, factory):
        population = make_population(factory, size=300)
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1), bit_error_rate=0.2)
        scanner.scan(Month(2012, 2), make_source(), [(population, False)])
        assert scanner.bit_error_records > 20

    def test_corrupted_modulus_one_bit_from_original(self, factory):
        population = make_population(factory, size=100)
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1), bit_error_rate=1.0)
        scanner.scan(Month(2012, 2), make_source(), [(population, False)])
        originals = {
            d.certificate.public_key.n for d in population.online
        }
        for entry in store.entries():
            n = entry.certificate.public_key.n
            assert n not in originals
            assert any((n ^ (1 << b)) in originals for b in range(n.bit_length() + 1))

    def test_corrupted_certificates_fail_verification(self, factory):
        population = make_population(factory, size=20)
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1), bit_error_rate=1.0)
        scanner.scan(Month(2012, 2), make_source(), [(population, False)])
        assert not any(e.certificate.verify_signature() for e in store.entries())


class TestInterception:
    def test_intercepted_population_serves_fixed_modulus(self, factory):
        population = make_population(factory, size=30)
        store = CertificateStore()
        interceptor = RimonInterceptor(random.Random(3), key_bits=96)
        scanner = HttpsScanner(store, random.Random(1), interceptor=interceptor)
        scanner.scan(Month(2012, 2), make_source(), [(population, True)])
        moduli = {e.certificate.public_key.n for e in store.entries()}
        assert moduli == {interceptor.modulus}
        # Subjects stay distinct: only the key was swapped.
        subjects = {e.certificate.subject.rfc4514() for e in store.entries()}
        assert len(subjects) > 1

    def test_unflagged_population_not_intercepted(self, factory):
        population = make_population(factory, size=10)
        store = CertificateStore()
        interceptor = RimonInterceptor(random.Random(3), key_bits=96)
        scanner = HttpsScanner(store, random.Random(1), interceptor=interceptor)
        scanner.scan(Month(2012, 2), make_source(), [(population, False)])
        assert interceptor.modulus not in {
            e.certificate.public_key.n for e in store.entries()
        }


class TestChainReconstruction:
    def test_rapid7_intermediates_emitted_then_stripped(self, factory):
        ca_pool = build_ca_pool(random.Random(4), count=3, key_bits=96)
        population = make_population(
            factory, size=100, ca_pool=ca_pool, ca_fraction=1.0
        )
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1), ca_pool=ca_pool)
        snapshot = scanner.scan(
            Month(2014, 6), make_source(intermediates=True), [(population, False)]
        )
        with_intermediates = snapshot.host_count
        assert with_intermediates > population.online_count()
        removed = reconstruct_chains(snapshot, store)
        assert removed == with_intermediates - population.online_count()
        # Only leaf certificates remain.
        remaining_ca = sum(
            1
            for _ip, cid in snapshot.records()
            if store[cid].certificate.is_ca
        )
        assert remaining_ca == 0

    def test_non_rapid7_sources_emit_no_intermediates(self, factory):
        ca_pool = build_ca_pool(random.Random(4), count=3, key_bits=96)
        population = make_population(
            factory, size=50, ca_pool=ca_pool, ca_fraction=1.0
        )
        store = CertificateStore()
        scanner = HttpsScanner(store, random.Random(1), ca_pool=ca_pool)
        snapshot = scanner.scan(
            Month(2013, 6), make_source(intermediates=False), [(population, False)]
        )
        assert snapshot.host_count == population.online_count()


class TestFleetView:
    def test_scan_of_a_view_ignores_later_steps(self, small_openssl_table):
        def scan(fleet):
            store = CertificateStore()
            scanner = HttpsScanner(
                store=store, rng=random.Random(5), bit_error_rate=0.05
            )
            snapshot = scanner.scan(Month(2012, 2), make_source(0.7), [(fleet, False)])
            fingerprints = [e.certificate.fingerprint() for e in store.entries()]
            return list(snapshot.records()), fingerprints

        def fleet():
            return make_population(
                WeakKeyFactory(seed=17, prime_bits=48, openssl_table=small_openssl_table),
                size=60,
            )

        expected = scan(fleet())
        moved_on = fleet()
        view = moved_on.view()
        for month in Month.range(Month(2012, 2), Month(2014, 1)):
            moved_on.step(month)
        assert moved_on.hosts() != view.hosts()
        assert scan(view) == expected
