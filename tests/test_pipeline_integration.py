"""End-to-end integration tests over the shared tiny study."""

import hashlib
import multiprocessing
import os
from multiprocessing import resource_tracker

import pytest

from repro.core.select import pool_workers
from repro.pipeline import build_world, run_study
from repro.scans.scanner import HttpsScanner
from repro.studyconfig import StudyConfig
from repro.timeline import HEARTBLEED, Month


class TestStudyStructure:
    def test_snapshot_count_matches_schedule(self, tiny_study):
        # 2 EFF + 1 P&Q + 20 Ecosystem + 17 Rapid7 + 11 Censys.
        assert len(tiny_study.snapshots) == 51

    def test_snapshots_ordered(self, tiny_study):
        months = [s.month for s in tiny_study.snapshots]
        assert months == sorted(months)

    def test_corpus_is_deduplicated(self, tiny_study):
        moduli = tiny_study.batch_result.moduli
        assert len(moduli) == len(set(moduli))

    def test_cluster_stats_present(self, tiny_study):
        stats = tiny_study.cluster_stats
        assert stats is not None
        assert stats.k == tiny_study.config.batchgcd.k
        # engine="auto" runs the descent pass: k own passes plus one task
        # per unordered subset pair.
        assert stats.engine == "alltoall"
        assert stats.tasks == stats.k + stats.k * (stats.k - 1) // 2


class TestHeadlineResults:
    def test_vulnerable_moduli_found(self, tiny_study):
        assert len(tiny_study.fingerprints.factored_clean) > 50

    def test_no_false_positives(self, tiny_study):
        assert set(tiny_study.fingerprints.factored_clean) <= tiny_study.weak_moduli_truth

    def test_vulnerable_hosts_rise_then_exist_at_end(self, tiny_study):
        vuln = tiny_study.series.overall.vulnerable()
        assert vuln[-1] > 0
        assert max(vuln) > vuln[0]

    def test_most_vulnerable_devices_only_rsa_kex(self, tiny_study):
        # Paper: 74% of vulnerable devices in 4/2016 support only RSA kex.
        vulnerable = tiny_study.vulnerable_moduli()
        last = tiny_study.snapshots[-1]
        total = only_rsa = 0
        for _ip, cert_id in last.records():
            entry = tiny_study.store[cert_id]
            if entry.certificate.public_key.n in vulnerable:
                total += entry.weight
                if entry.only_rsa_kex:
                    only_rsa += entry.weight
        assert total > 0
        assert 0.4 < only_rsa / total <= 1.0

    def test_newly_vulnerable_vendors_absent_before_2014(self, tiny_study):
        # Sangfor's ~15 paper-scale vulnerable hosts round away at tiny
        # scale, so only the two robustly-visible ramps are asserted here.
        for vendor in ("Huawei", "Schmid Telecom"):
            series = tiny_study.series.vendor(vendor)
            early = [p for p in series.points if p.month < Month(2014, 1)]
            late = [p for p in series.points if p.month >= Month(2015, 6)]
            if not late:
                continue
            assert sum(p.vulnerable for p in early) == 0, vendor
            assert sum(p.vulnerable for p in late) > 0, vendor

    def test_juniper_vulnerable_rises_after_advisory(self, tiny_study):
        # The paper's headline anti-result: the advisory (4/2012) did not
        # stop the vulnerable population from rising into 2014.
        series = tiny_study.series.vendor("Juniper")
        at_advisory = [p for p in series.points if p.month <= Month(2012, 7)]
        pre_heartbleed = [
            p for p in series.points
            if Month(2013, 6) <= p.month < HEARTBLEED
        ]
        assert max(p.vulnerable for p in pre_heartbleed) > max(
            p.vulnerable for p in at_advisory
        )


class TestDeterminism:
    def test_golden_divisors_and_certificates(self, tiny_study):
        # One digest over the batch-GCD divisors (hex, corpus order) and the
        # interned certificates' fingerprints (id order).  Key generation,
        # primality testing, certificate hashing and interning all feed it,
        # so an optimisation of any of them must leave it unchanged.
        digest = hashlib.sha256()
        for divisor in tiny_study.batch_result.divisors:
            digest.update(f"{divisor:x}\n".encode())
        for entry in tiny_study.store.entries():
            digest.update(f"{entry.certificate.fingerprint()}\n".encode())
        assert digest.hexdigest() == (
            "f3b221972ce38ba0ab6f0d7dc39d77293045169d05d697fe5b4c734e95074acc"
        )

    def test_same_seed_same_world(self):
        config = StudyConfig.tiny().with_(
            end=Month(2011, 6), bit_error_rate=0.0, rimon_hosts=2
        )
        a = build_world(config)
        b = build_world(config)
        for month in Month.range(config.start, config.end):
            a.step(month)
            b.step(month)
        truth_a = a.weak_moduli_truth()
        truth_b = b.weak_moduli_truth()
        assert truth_a == truth_b

    def test_different_seed_different_world(self):
        base = StudyConfig.tiny().with_(end=Month(2011, 6))
        a = build_world(base)
        b = build_world(base.with_(seed=999))
        for month in Month.range(base.start, base.end):
            a.step(month)
            b.step(month)
        assert a.weak_moduli_truth() != b.weak_moduli_truth()


class TestPooledKeygen:
    """The study derives healthy-key primes on a spawned pool sized by the
    core rule; the shared tiny study ran on it on any multi-core host."""

    def test_pooled_and_in_process_studies_are_equal(self, tiny_study, monkeypatch):
        derives = [
            span
            for root in tiny_study.telemetry.spans
            for span in root.walk()
            if span.name == "keygen.derive"
        ]
        assert {s.attrs["processes"] for s in derives} == {pool_workers() or 0}
        assert not any(s.attrs["fallback"] for s in derives)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        inline = run_study(StudyConfig.tiny())
        assert inline.batch_result.divisors == tiny_study.batch_result.divisors
        assert [e.certificate.fingerprint() for e in inline.store.entries()] == [
            e.certificate.fingerprint() for e in tiny_study.store.entries()
        ]
        assert inline.table1 == tiny_study.table1
        assert inline.table4 == tiny_study.table4
        assert inline.table5 == tiny_study.table5

    def test_study_that_raises_mid_walk_leaves_no_process(self, monkeypatch):
        tracker_was_running = getattr(resource_tracker._resource_tracker, "_fd", None)
        scans = 0
        real_scan = HttpsScanner.scan

        def failing_scan(self, *args, **kwargs):
            nonlocal scans
            scans += 1
            if scans == 3:
                raise RuntimeError("scanner failed mid-walk")
            return real_scan(self, *args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(HttpsScanner, "scan", failing_scan)
        with pytest.raises(RuntimeError, match="mid-walk"):
            run_study(StudyConfig.tiny())
        assert scans == 3
        assert multiprocessing.active_children() == []
        if tracker_was_running is None:
            assert resource_tracker._resource_tracker._fd is None


class TestShortWindowStudy:
    def test_study_on_sub_window_runs(self):
        config = StudyConfig.tiny().with_(
            start=Month(2012, 6), end=Month(2013, 6), seed=77,
        )
        result = run_study(config)
        assert len(result.snapshots) == 13
        assert result.table1.total_distinct_moduli_raw > 0
