"""Non-HTTPS key corpora: SSH, IMAPS, POP3S, SMTPS (Table 4).

The paper fed RSA keys from Censys SSH and mail-protocol scans into the
batch GCD alongside HTTPS, then excluded those protocols from the
longitudinal analysis after finding that virtually all vulnerable keys were
HTTPS: 723 vulnerable SSH hosts and zero vulnerable mail hosts.

These corpora are simulated once, at the protocol scan dates of Table 4:
mail servers are general-purpose machines with healthy entropy, so their
keys never factor; a small population of network devices exposes SSH with
the same boot-time entropy hole as their HTTPS siblings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.entropy.keygen import (
    GeneratedKey,
    HealthyProfile,
    SharedPrimeProfile,
    WeakKeyFactory,
)
from repro.timeline import Month

__all__ = ["ProtocolCorpus", "build_protocol_corpora", "PROTOCOL_SPECS"]


@dataclass(frozen=True, slots=True)
class _ProtocolSpec:
    """Paper-scale parameters for one protocol scan (Table 4)."""

    name: str
    scan_month: Month
    total_hosts: int
    rsa_hosts: int
    weak_hosts: int
    weak_boot_states: int = 60


#: Table 4's scan rows at paper scale.
PROTOCOL_SPECS: tuple[_ProtocolSpec, ...] = (
    _ProtocolSpec("SSH", Month(2015, 10), 10_730_527, 6_257_106, 723),
    _ProtocolSpec("POP3S", Month(2016, 4), 4_533_094, 4_533_094, 0),
    _ProtocolSpec("IMAPS", Month(2016, 4), 4_544_158, 4_544_158, 0),
    _ProtocolSpec("SMTPS", Month(2016, 4), 3_292_031, 3_292_031, 0),
)

#: Extra historical keys (prior scans, key rollovers) folded into the batch
#: GCD corpus per protocol, as a fraction of the current scan's keys.  This
#: accounts for Table 1's total of 81.2 M distinct moduli exceeding the sum
#: of single-scan counts.
HISTORICAL_KEY_FRACTION = 0.6


@dataclass(slots=True)
class ProtocolCorpus:
    """One protocol's simulated key corpus.

    Attributes:
        protocol: protocol name ("SSH", ...).
        scan_month: when the representative scan ran.
        total_hosts_sim: simulated host count (all key types).
        weight: paper-scale hosts per simulated host.
        rsa_moduli: moduli of hosts serving RSA keys in the scan.
        historical_moduli: additional distinct moduli from earlier scans,
            included in the batch GCD corpus but not in Table 4 host counts.
        weak_moduli_truth: ground-truth weak moduli (for validation only).
    """

    protocol: str
    scan_month: Month
    total_hosts_sim: int
    weight: int
    rsa_moduli: list[int] = field(default_factory=list)
    historical_moduli: list[int] = field(default_factory=list)
    weak_moduli_truth: set[int] = field(default_factory=set)

    @property
    def rsa_host_count_sim(self) -> int:
        """Simulated hosts serving RSA keys."""
        return len(self.rsa_moduli)

    def all_moduli(self) -> list[int]:
        """Every modulus this corpus contributes to the batch GCD."""
        return self.rsa_moduli + self.historical_moduli


def _weak_divisor(spec: _ProtocolSpec, scale: int, min_weak_sim: int = 20) -> int:
    """Divisor for the weak sub-population (kept small enough to be visible)."""
    if spec.weak_hosts == 0:
        return scale
    return max(1, min(scale, spec.weak_hosts // min_weak_sim))


def build_protocol_corpora(
    scale: int,
    factory: WeakKeyFactory,
    rng: random.Random,
) -> list[ProtocolCorpus]:
    """Build all four non-HTTPS corpora at ``1/scale``.

    The weak SSH sub-population is simulated at its own (smaller) divisor so
    that the ~723 paper-scale vulnerable hosts do not round away; its records
    carry that divisor as weight through the pipeline.  Healthy moduli are
    read only once every key is requested, so their primes resolve together.
    """
    corpora: list[ProtocolCorpus] = []
    healthy_keys: list[tuple[list[int], list[GeneratedKey]]] = []
    for spec in PROTOCOL_SPECS:
        healthy_profile = HealthyProfile(profile_id=f"proto-{spec.name.lower()}")
        healthy_count = max(0, round((spec.rsa_hosts - spec.weak_hosts) / scale))
        corpus = ProtocolCorpus(
            protocol=spec.name,
            scan_month=spec.scan_month,
            total_hosts_sim=round(spec.total_hosts / scale),
            weight=scale,
        )
        current = [healthy_profile.generate(rng, factory) for _ in range(healthy_count)]
        historical = [
            healthy_profile.generate(rng, factory)
            for _ in range(round(healthy_count * HISTORICAL_KEY_FRACTION))
        ]
        healthy_keys += [(corpus.rsa_moduli, current), (corpus.historical_moduli, historical)]
        if spec.weak_hosts:
            divisor = _weak_divisor(spec, scale)
            weak_profile = SharedPrimeProfile(
                profile_id=f"proto-{spec.name.lower()}-weak",
                boot_states=max(2, spec.weak_boot_states // divisor),
                openssl_style=False,
            )
            weak_count = max(1, round(spec.weak_hosts / divisor))
            # The weak hosts ride along in the same corpus with their own
            # weight; a parallel corpus entry keeps weights unambiguous.
            weak_corpus = ProtocolCorpus(
                protocol=spec.name,
                scan_month=spec.scan_month,
                total_hosts_sim=weak_count,
                weight=divisor,
            )
            for _ in range(weak_count):
                key = weak_profile.generate(rng, factory)
                n = key.keypair.public.n
                weak_corpus.rsa_moduli.append(n)
                weak_corpus.weak_moduli_truth.add(n)
            corpora.append(weak_corpus)
        corpora.append(corpus)
    for moduli, keys in healthy_keys:
        moduli.extend(key.keypair.public.n for key in keys)
    return corpora
