"""Population dynamics: deploying, retiring, churning and patching devices.

Each :class:`ModelPopulation` walks the study timeline month by month,
tracking its model's piecewise-linear population target and applying the
behavioural events of Section 4: certificate regeneration (which on flawed
firmware redraws the boot state and produces the vulnerable/non-vulnerable
transitions seen for Juniper), IP churn (the false "patching" signal the
paper traced for IBM), owner patching (measured to be near zero), and the
April 2014 Heartbleed shock (offline fraction biased toward crashing
vulnerable fleets, plus a small patching wave).

Populations are simulated at a per-model *divisor* of paper scale, chosen by
:func:`resolve_divisor` so that large fleets stay tractable while small
vulnerable fleets retain enough units to show their shape.  All analysis
weights counts back up by the divisor, so reported series are estimates in
paper-scale units.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.certs import Certificate
from repro.crypto.rsa import RsaPrivateKey
from repro.devices.certfactory import DeviceCertificate, build_certificate
from repro.devices.models import DeviceModel, KeygenKind
from repro.entropy.keygen import (
    GeneratedKey,
    HealthyProfile,
    IbmNinePrimeProfile,
    KeygenProfile,
    SharedPrimeProfile,
    WeakKeyFactory,
)
from repro.timeline import HEARTBLEED, Month

__all__ = [
    "Device",
    "DivisorLimits",
    "FleetView",
    "IpAllocator",
    "ModelPopulation",
    "resolve_divisor",
]


@dataclass(frozen=True, slots=True)
class DivisorLimits:
    """Bounds for the per-model population divisor.

    Attributes:
        device_scale: the baseline divisor (matches the background scale).
        min_total_sim: prefer at least this many simulated units at peak.
        max_total_sim: never simulate more than this many units at peak.
        min_weak_sim: prefer at least this many weak units at peak.
    """

    device_scale: int = 1000
    min_total_sim: int = 200
    max_total_sim: int = 3000
    min_weak_sim: int = 20


def resolve_divisor(model: DeviceModel, limits: DivisorLimits) -> int:
    """Choose the population divisor for one model.

    The divisor is pulled toward ``device_scale`` but clamped so the peak
    simulated population lies in ``[min_total_sim, max_total_sim]`` where
    possible, and lowered when needed to keep at least ``min_weak_sim`` weak
    units alive (small vulnerable fleets such as Innominate's ~500 devices
    would otherwise round to zero).
    """
    peak = max((v for _, v in model.schedule.points), default=0)
    if peak == 0:
        return 1
    spec = model.keygen
    if spec.kind is KeygenKind.HEALTHY:
        weak_peak = 0.0
    elif spec.kind in (KeygenKind.IBM_NINE_PRIME, KeygenKind.FIXED_IBM_MODULUS):
        weak_peak = float(peak)
    else:
        weak_peak = peak * spec.vulnerable_fraction
    lo = max(1.0, peak / limits.max_total_sim)
    hi = max(1.0, peak / limits.min_total_sim)
    if weak_peak > 0:
        want = min(float(limits.device_scale), weak_peak / limits.min_weak_sim)
    else:
        want = float(limits.device_scale)
    return max(1, round(max(lo, min(hi, want))))


class IpAllocator:
    """Allocates distinct IPv4 addresses, recycling a share of released ones.

    Recycling models real address churn: when a device disappears its address
    is eventually reassigned, which is how 350 of the 1,728 ever-vulnerable
    IBM IPs came to serve unrelated certificates (Section 4.1).
    """

    def __init__(self, rng: random.Random, reuse_probability: float = 0.3) -> None:
        self._rng = rng
        self._in_use: set[int] = set()
        self._released: list[int] = []
        self.reuse_probability = reuse_probability

    def allocate(self) -> int:
        """Return an address not currently in use."""
        if self._released and self._rng.random() < self.reuse_probability:
            ip = self._released.pop(self._rng.randrange(len(self._released)))
            self._in_use.add(ip)
            return ip
        while True:
            # Public-ish space: avoid 0.x and 10.x to taste; uniqueness is
            # what matters to the pipeline.
            ip = self._rng.randrange(0x0B000000, 0xDF000000)
            if ip not in self._in_use:
                self._in_use.add(ip)
                return ip

    def release(self, ip: int) -> None:
        """Return an address to the reuse pool."""
        self._in_use.discard(ip)
        self._released.append(ip)


@dataclass(slots=True)
class Device:
    """One simulated unit with its current key, certificate and address.

    ``weak_firmware`` records whether the unit runs a flawed firmware build
    (deployed inside the model's vulnerable window); whether its *current*
    key is actually weak is ``key.weak_by_construction``, re-drawn at every
    key generation.  ``issued`` is the current certificate as drawn;
    :attr:`certificate` assembles it on the first read.
    """

    device_id: int
    model: DeviceModel
    ip: int
    deployed: Month
    weak_firmware: bool
    key: GeneratedKey
    issued: DeviceCertificate
    retired: Month | None = None
    cert_generations: int = 1

    @property
    def certificate(self) -> Certificate:
        """The certificate the device serves."""
        return self.issued.certificate


#: One online host as a scan sees it: its address and drawn certificate.
Host = tuple[int, DeviceCertificate]


@dataclass(frozen=True, slots=True)
class FleetView:
    """A fleet's online hosts as of one moment, for a later scan.

    The fleet itself may step on (retire devices, move addresses, draw
    new certificates) before the scan runs; the view keeps what the
    scan would have seen then.
    """

    model: DeviceModel
    divisor: int
    online: list[Host]

    def hosts(self) -> list[Host]:
        """The online hosts, in fleet order."""
        return self.online


class ModelPopulation:
    """Simulates one device model's fleet over the study timeline."""

    def __init__(
        self,
        model: DeviceModel,
        divisor: int,
        factory: WeakKeyFactory,
        allocator: IpAllocator,
        rng: random.Random,
        advisory: Month | None = None,
        ca_pool: list[tuple["Certificate", "RsaPrivateKey"]] | None = None,
        ca_fraction: float = 0.0,
    ) -> None:
        self.model = model
        self.divisor = divisor
        self.factory = factory
        self.allocator = allocator
        self.rng = rng
        self.advisory = advisory
        self.ca_pool = ca_pool or []
        self.ca_fraction = ca_fraction if self.ca_pool else 0.0
        self.online: list[Device] = []
        self.retired: list[Device] = []
        #: Ground truth: every weak modulus this fleet ever served (covers
        #: keys later replaced by certificate regeneration or patching).
        self.weak_moduli_emitted: set[int] = set()
        self._next_id = 0
        self._weak_profile = self._build_weak_profile()
        self._healthy_profile = HealthyProfile(
            profile_id=f"{model.keygen.profile_id}/healthy"
        )
        self._fixed_key: GeneratedKey | None = None

    # -- profile construction -------------------------------------------

    def _build_weak_profile(self) -> KeygenProfile | None:
        spec = self.model.keygen
        if spec.kind is KeygenKind.HEALTHY:
            return None
        if spec.kind is KeygenKind.IBM_NINE_PRIME:
            return IbmNinePrimeProfile(profile_id=spec.profile_id)
        if spec.kind is KeygenKind.FIXED_IBM_MODULUS:
            # The affected units all serve one modulus from the IBM clique.
            return IbmNinePrimeProfile(profile_id=spec.profile_id)
        boot_states = max(2, spec.boot_states // self.divisor)
        return SharedPrimeProfile(
            profile_id=spec.profile_id,
            boot_states=boot_states,
            openssl_style=spec.openssl_style,
        )

    def _generate_key(self, weak: bool) -> GeneratedKey:
        spec = self.model.keygen
        if weak and spec.kind is KeygenKind.FIXED_IBM_MODULUS:
            if self._fixed_key is None:
                fixed_rng = random.Random(0)  # always picks the same pair
                assert isinstance(self._weak_profile, IbmNinePrimeProfile)
                self._fixed_key = self._weak_profile.generate(fixed_rng, self.factory)
            self.weak_moduli_emitted.add(self._fixed_key.keypair.public.n)
            return self._fixed_key
        if weak and self._weak_profile is not None:
            key = self._weak_profile.generate(self.rng, self.factory)
            self.weak_moduli_emitted.add(key.keypair.public.n)
            return key
        return self._healthy_profile.generate(self.rng, self.factory)

    # -- lifecycle -------------------------------------------------------

    def _weak_draw(self) -> bool:
        """One keygen's entropy luck: weak with the spec's probability.

        The flaw lives in the firmware, but whether a *particular* key
        generation collides depends on the entropy available at that boot —
        so the draw happens per generation, at deploy and at regeneration
        alike.  This is what makes hosts flap between vulnerable and
        non-vulnerable certificates (Section 4.1's Juniper transitions).
        """
        return self.rng.random() < self.model.keygen.vulnerable_fraction

    def _deploy(self, month: Month) -> Device:
        spec = self.model.keygen
        flawed_firmware = spec.window_contains(month)
        key = self._generate_key(flawed_firmware and self._weak_draw())
        ip = self.allocator.allocate()
        issued = build_certificate(
            self.model, key, ip, month, self.rng, issuer=self._pick_issuer()
        )
        device = Device(
            device_id=self._next_id,
            model=self.model,
            ip=ip,
            deployed=month,
            weak_firmware=flawed_firmware,
            key=key,
            issued=issued,
        )
        self._next_id += 1
        self.online.append(device)
        return device

    def _retire(self, device: Device, month: Month) -> None:
        device.retired = month
        self.allocator.release(device.ip)
        self.retired.append(device)

    def _retire_random(self, count: int, month: Month) -> None:
        count = min(count, len(self.online))
        for _ in range(count):
            index = self.rng.randrange(len(self.online))
            device = self.online.pop(index)
            self._retire(device, month)

    def _stochastic_count(self, n: int, rate: float) -> int:
        """Expected ``n * rate`` as an integer with stochastic rounding."""
        expected = n * rate
        base = int(expected)
        return base + (self.rng.random() < (expected - base))

    def _pick_issuer(self) -> tuple["Certificate", "RsaPrivateKey"] | None:
        if self.ca_pool and self.rng.random() < self.ca_fraction:
            return self.rng.choice(self.ca_pool)
        return None

    def _regenerate(self, device: Device, month: Month, heal: bool = False) -> None:
        if heal:
            device.weak_firmware = False
        device.key = self._generate_key(device.weak_firmware and self._weak_draw())
        device.issued = build_certificate(
            device.model, device.key, device.ip, month, self.rng,
            issuer=self._pick_issuer(),
        )
        device.cert_generations += 1

    # -- monthly step ----------------------------------------------------

    def step(self, month: Month) -> None:
        """Advance the fleet one month."""
        if month == HEARTBLEED:
            self._apply_heartbleed(month)
        schedule = self.model.schedule
        target = schedule.target(month, self.divisor)
        delta = target - len(self.online)
        if delta > 0:
            for _ in range(delta):
                self._deploy(month)
        elif delta < 0:
            self._retire_random(-delta, month)
        # Natural replacement churn: old units leave, new units arrive.
        churn = self._stochastic_count(len(self.online), schedule.churn_rate)
        self._retire_random(churn, month)
        for _ in range(churn):
            self._deploy(month)
        # IP churn: same device and certificate, new address.
        for device in self.online:
            if self.rng.random() < schedule.ip_churn_rate:
                self.allocator.release(device.ip)
                device.ip = self.allocator.allocate()
        # In-place certificate regeneration (reboots, factory resets).
        if schedule.cert_regen_rate > 0:
            for device in self.online:
                if self.rng.random() < schedule.cert_regen_rate:
                    self._regenerate(device, month)
        # Certificate renewal: a fresh certificate around the same key pair.
        if schedule.cert_renewal_rate > 0:
            for device in self.online:
                if self.rng.random() < schedule.cert_renewal_rate:
                    device.issued = build_certificate(
                        device.model, device.key, device.ip, month,
                        self.rng, issuer=self._pick_issuer(),
                    )
                    device.cert_generations += 1
        # Owner patching, only meaningful once an advisory exists.
        if (
            schedule.patch_rate > 0
            and self.advisory is not None
            and month >= self.advisory
        ):
            for device in self.online:
                if device.weak_firmware and self.rng.random() < schedule.patch_rate:
                    self._regenerate(device, month, heal=True)

    def _apply_heartbleed(self, month: Month) -> None:
        """The April 2014 shock: offline wave biased to weak units, patching."""
        behavior = self.model.heartbleed
        if behavior.offline_fraction <= 0 and behavior.patch_fraction <= 0:
            return
        weak_count = sum(1 for d in self.online if d.key.weak_by_construction)
        total = len(self.online)
        if total == 0:
            return
        weak_share = weak_count / total
        bias = behavior.vulnerable_bias
        denom = (1 - weak_share) + bias * weak_share
        base_prob = behavior.offline_fraction / denom if denom else 0.0
        survivors: list[Device] = []
        for device in self.online:
            prob = min(
                1.0,
                base_prob * (bias if device.key.weak_by_construction else 1.0),
            )
            if self.rng.random() < prob:
                self._retire(device, month)
            else:
                survivors.append(device)
        self.online = survivors
        if behavior.patch_fraction > 0:
            for device in self.online:
                if device.weak_firmware and self.rng.random() < behavior.patch_fraction:
                    self._regenerate(device, month, heal=True)

    # -- scanning --------------------------------------------------------

    def hosts(self) -> list[Host]:
        """The online hosts now, in fleet order."""
        return [(device.ip, device.issued) for device in self.online]

    def view(self) -> FleetView:
        """The online hosts now, kept for a scan after later steps."""
        return FleetView(self.model, self.divisor, self.hosts())

    # -- statistics ------------------------------------------------------

    def online_count(self) -> int:
        """Simulated units currently online."""
        return len(self.online)

    def weak_online_count(self) -> int:
        """Simulated units currently serving a weak key."""
        return sum(1 for d in self.online if d.key.weak_by_construction)

    def devices_ever(self) -> list[Device]:
        """All units ever deployed (online plus retired)."""
        return self.online + self.retired
