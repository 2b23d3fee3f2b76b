"""Study configuration: scale, seeds, key sizes, and simulation knobs.

One :class:`StudyConfig` object parameterises the entire pipeline.  The
presets trade fidelity for runtime:

- :meth:`StudyConfig.full` — the flagship 1:1000-scale run used by the
  benchmark harness (~80 k distinct moduli; minutes of wall time).
- :meth:`StudyConfig.medium` — 1:5000 scale for examples (tens of seconds).
- :meth:`StudyConfig.tiny` — unit-test scale (seconds).

All counts reported by the analysis layer are *scale-corrected*: every
simulated host carries the divisor of its population as a weight, so tables
and figures read in estimated paper-scale units regardless of preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.select import EngineConfig
from repro.devices.population import DivisorLimits
from repro.numt.sieve import first_n_primes
from repro.timeline import STUDY_END, STUDY_START, Month

__all__ = ["StudyConfig"]


@dataclass(frozen=True, slots=True)
class StudyConfig:
    """All knobs for one simulated study.

    Attributes:
        seed: world seed; the whole pipeline is deterministic given it.
        scale: divisor applied to the background HTTPS ecosystem and to all
            corpus-level counts (1000 = the headline 1:1000 run).
        device_limits: per-model population divisor bounds (see
            :func:`repro.devices.population.resolve_divisor`).
        device_prime_bits: prime size for device keys.
        background_prime_bits: prime size for background/web keys (smaller,
            since the background exists only to give the batch GCD a
            realistic corpus).
        openssl_table_size: number of small primes in the OpenSSL
            fingerprint table (None = the authentic 2048; tests shrink it).
        bit_error_rate: per-host-record probability of recording a corrupted
            modulus.  Chosen far above the real-world rate so the Section
            3.3.5 artifact is visible at simulation scale; documented in
            DESIGN.md.
        rimon_hosts: number of simulated Internet-Rimon-intercepted hosts.
        start, end: study window.
        batchgcd: the batch-GCD engine knobs (see
            :class:`repro.core.select.EngineConfig`).
    """

    seed: int = 2016
    scale: int = 1000
    device_limits: DivisorLimits = field(
        default_factory=lambda: DivisorLimits(device_scale=1000)
    )
    device_prime_bits: int = 128
    background_prime_bits: int = 64
    openssl_table_size: int | None = None
    bit_error_rate: float = 4e-5
    rimon_hosts: int = 24
    start: Month = STUDY_START
    end: Month = STUDY_END
    batchgcd: EngineConfig = EngineConfig()

    def openssl_table(self) -> tuple[int, ...] | None:
        """The odd-prime table for OpenSSL-style generation (None = default)."""
        if self.openssl_table_size is None:
            return None
        return first_n_primes(self.openssl_table_size + 1)[1:]

    @classmethod
    def full(cls, seed: int = 2016) -> "StudyConfig":
        """The flagship 1:1000 configuration."""
        return cls(seed=seed)

    @classmethod
    def bench(cls, seed: int = 2016) -> "StudyConfig":
        """Benchmark-harness configuration (~1:10000, ~1-2 minutes).

        Divisor limits are tuned so every figure's vulnerable fleet keeps
        ~14+ simulated units where the paper-scale counts permit (enough
        that e.g. the IP-only Fritz!Box shared-prime extrapolation path is
        exercised with near-certainty), while the whole study fits a single
        pytest session.
        """
        return cls(
            seed=seed,
            scale=10_000,
            device_limits=DivisorLimits(
                device_scale=10_000, min_total_sim=100, max_total_sim=600,
                min_weak_sim=14,
            ),
            device_prime_bits=96,
            background_prime_bits=56,
            openssl_table_size=512,
            bit_error_rate=4e-4,
            rimon_hosts=12,
        )

    @classmethod
    def medium(cls, seed: int = 2016) -> "StudyConfig":
        """Example-sized configuration (~1:5000)."""
        return cls(
            seed=seed,
            scale=5000,
            device_limits=DivisorLimits(
                device_scale=5000, min_total_sim=80, max_total_sim=700,
                min_weak_sim=10,
            ),
            bit_error_rate=2e-4,
        )

    @classmethod
    def tiny(cls, seed: int = 2016) -> "StudyConfig":
        """Unit-test configuration: seconds, not minutes."""
        return cls(
            seed=seed,
            scale=25_000,
            device_limits=DivisorLimits(
                device_scale=25_000, min_total_sim=25, max_total_sim=120,
                min_weak_sim=5,
            ),
            device_prime_bits=64,
            background_prime_bits=48,
            openssl_table_size=64,
            bit_error_rate=1e-3,
            rimon_hosts=6,
            batchgcd=EngineConfig(k=4),
        )

    def with_(self, **changes) -> "StudyConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
