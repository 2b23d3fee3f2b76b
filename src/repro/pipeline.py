"""End-to-end study pipeline: world -> scans -> batch GCD -> analysis.

:func:`run_study` reproduces the paper's entire methodology at simulation
scale:

1. build the ground-truth world (device fleets, background web, CA pool,
   the Rimon interceptor);
2. walk the monthly timeline, stepping every population and collecting one
   representative scan per month with the era-appropriate scanner;
3. assemble the distinct-moduli corpus (HTTPS plus SSH/mail protocols) and
   factor it with the clustered batch GCD;
4. fingerprint implementations and triage artifacts;
5. build every table and figure series of the evaluation.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from repro.analysis.eol import ModelEolAnalysis, analyze_eol
from repro.analysis.exposure import ExposureStats, analyze_exposure
from repro.analysis.heartbleed import HeartbleedImpact, analyze_heartbleed
from repro.analysis.tables import (
    Table1DatasetSummary,
    Table2VendorResponses,
    Table3ScanComparison,
    Table4ProtocolRow,
    Table5OpensslTable,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
)
from repro.analysis.timeseries import GlobalSeries, build_series
from repro.analysis.transitions import (
    IpReuseStats,
    TransitionStats,
    analyze_ip_reuse,
    analyze_transitions,
)
from repro.core.clustered import ClusterRunStats
from repro.core.results import BatchGcdResult
from repro.core.select import select_engine
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.models import (
    DeviceModel,
    KeygenKind,
    KeygenSpec,
    PopulationSchedule,
    SubjectStyle,
)
from repro.devices.population import (
    IpAllocator,
    ModelPopulation,
    resolve_divisor,
)
from repro.devices.vendors import VENDORS
from repro.entropy.keygen import WeakKeyFactory
from repro.fingerprint.engine import FingerprintReport, fingerprint_study
from repro.scans.background import build_background_population, build_ca_pool
from repro.scans.protocols import ProtocolCorpus, build_protocol_corpora
from repro.scans.records import CertificateStore, ScanSnapshot
from repro.scans.rimon import RimonInterceptor
from repro.scans.scanner import HttpsScanner, reconstruct_chains
from repro.scans.sources import source_for_month
from repro.studyconfig import StudyConfig
from repro.telemetry import RunReport, Telemetry, get_telemetry, use_telemetry
from repro.timeline import Month

__all__ = ["STAGE_SPANS", "StudyWorld", "StudyResult", "build_world", "run_study"]

logger = logging.getLogger(__name__)

#: Paper-scale size of the Internet-Rimon customer fleet (922 distinct IPs).
RIMON_PAPER_IPS = 922


@dataclass(slots=True)
class StudyWorld:
    """The simulated ground truth, before any scanning.

    Attributes:
        config: the study configuration.
        populations: every fleet, flagged True when Rimon-intercepted.
        ca_pool: intermediate CAs signing background certificates.
        interceptor: the Rimon man in the middle.
        device_factory: prime factory for device keys.
        background_factory: prime factory for background/protocol keys.
        divisors: model id -> resolved population divisor.
    """

    config: StudyConfig
    populations: list[tuple[ModelPopulation, bool]]
    ca_pool: list
    interceptor: RimonInterceptor
    device_factory: WeakKeyFactory
    background_factory: WeakKeyFactory
    divisors: dict[str, int]

    def step(self, month: Month) -> None:
        """Advance every population one month."""
        for population, _intercepted in self.populations:
            population.step(month)

    def weak_moduli_truth(self) -> set[int]:
        """Ground-truth weak moduli ever emitted by any fleet."""
        truth: set[int] = set()
        for population, _intercepted in self.populations:
            truth |= population.weak_moduli_emitted
        return truth


def _rimon_customer_model(config: StudyConfig) -> DeviceModel:
    """The intercepted customer fleet (consumer gateways, healthy keys)."""
    return DeviceModel(
        model_id="rimon-customers",
        vendor="(rimon-intercepted)",
        subject_style=SubjectStyle.IP_ONLY,
        keygen=KeygenSpec(kind=KeygenKind.HEALTHY, profile_id="rimon-customers"),
        schedule=PopulationSchedule(
            points=((config.start, RIMON_PAPER_IPS), (config.end, RIMON_PAPER_IPS)),
            churn_rate=0.0,
            ip_churn_rate=0.0,
            cert_regen_rate=0.0,
        ),
    )


def _model_rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"repro-study|{seed}|{tag}")


def build_world(config: StudyConfig) -> StudyWorld:
    """Construct the ground-truth world for a configuration."""
    table = config.openssl_table()
    device_factory = WeakKeyFactory(
        seed=config.seed, prime_bits=config.device_prime_bits, openssl_table=table
    )
    background_factory = WeakKeyFactory(
        seed=config.seed ^ 0x5CA1AB1E,
        prime_bits=config.background_prime_bits,
        openssl_table=table,
    )
    allocator = IpAllocator(_model_rng(config.seed, "ip-allocator"))
    ca_pool = build_ca_pool(
        _model_rng(config.seed, "ca-pool"),
        key_bits=max(64, config.background_prime_bits * 2),
    )
    populations: list[tuple[ModelPopulation, bool]] = []
    divisors: dict[str, int] = {}
    for model in DEVICE_CATALOG:
        divisor = resolve_divisor(model, config.device_limits)
        divisors[model.model_id] = divisor
        vendor = VENDORS.get(model.vendor)
        populations.append(
            (
                ModelPopulation(
                    model=model,
                    divisor=divisor,
                    factory=device_factory,
                    allocator=allocator,
                    rng=_model_rng(config.seed, model.model_id),
                    advisory=vendor.advisory if vendor else None,
                ),
                False,
            )
        )
    background = build_background_population(
        scale=config.scale,
        factory=background_factory,
        allocator=allocator,
        rng=_model_rng(config.seed, "background"),
        ca_pool=ca_pool,
    )
    divisors[background.model.model_id] = config.scale
    populations.append((background, False))

    rimon_model = _rimon_customer_model(config)
    rimon_divisor = max(1, round(RIMON_PAPER_IPS / max(1, config.rimon_hosts)))
    divisors[rimon_model.model_id] = rimon_divisor
    populations.append(
        (
            ModelPopulation(
                model=rimon_model,
                divisor=rimon_divisor,
                factory=device_factory,
                allocator=allocator,
                rng=_model_rng(config.seed, "rimon-customers"),
            ),
            True,
        )
    )
    interceptor = RimonInterceptor(
        _model_rng(config.seed, "rimon-key"), key_bits=config.device_prime_bits * 2
    )
    return StudyWorld(
        config=config,
        populations=populations,
        ca_pool=ca_pool,
        interceptor=interceptor,
        device_factory=device_factory,
        background_factory=background_factory,
        divisors=divisors,
    )


@dataclass(slots=True)
class StudyResult:
    """Everything the reproduced study produces."""

    config: StudyConfig
    store: CertificateStore
    snapshots: list[ScanSnapshot]
    protocol_corpora: list[ProtocolCorpus]
    batch_result: BatchGcdResult
    cluster_stats: ClusterRunStats | None
    fingerprints: FingerprintReport
    series: GlobalSeries
    transitions: dict[str, TransitionStats]
    table1: Table1DatasetSummary
    table2: Table2VendorResponses
    table3: tuple[Table3ScanComparison, Table3ScanComparison]
    table4: list[Table4ProtocolRow]
    table5: Table5OpensslTable
    heartbleed: HeartbleedImpact
    eol: list[ModelEolAnalysis]
    exposure: ExposureStats | None
    ibm_ip_reuse: IpReuseStats
    weak_moduli_truth: set[int]
    divisors: dict[str, int]
    telemetry: RunReport | None = None

    def vulnerable_moduli(self) -> set[int]:
        """Factored, artifact-free moduli."""
        return self.fingerprints.vulnerable_moduli()


#: The six top-level stage spans every instrumented run emits, in order
#: (see ``docs/TELEMETRY.md``).
STAGE_SPANS = (
    "world_build",
    "timeline_walk",
    "corpus",
    "batch_gcd",
    "fingerprint",
    "analysis",
)


def run_study(
    config: StudyConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
) -> StudyResult:
    """Run the full reproduction pipeline.

    Args:
        config: study configuration (defaults to :meth:`StudyConfig.full`).
        telemetry: registry to record into for the duration of the run
            (activated via :func:`repro.telemetry.use_telemetry`, so every
            instrumented layer lands in it).  Defaults to the currently
            active registry — a disabled no-op unless a caller opted in.
            When recording, the snapshot is attached as
            :attr:`StudyResult.telemetry`.
    """
    config = config or StudyConfig.full()
    with use_telemetry(telemetry if telemetry is not None else get_telemetry()) as tel:
        result = _run_study_instrumented(config, tel)
    if tel.enabled:
        result.telemetry = tel.report()
    return result


def _run_study_instrumented(config: StudyConfig, tel: Telemetry) -> StudyResult:
    """The pipeline body, recording one span per stage into ``tel``."""
    with tel.span("world_build", seed=config.seed, scale=config.scale):
        world = build_world(config)
        store = CertificateStore()
        scanner = HttpsScanner(
            store=store,
            rng=_model_rng(config.seed, "scanner"),
            bit_error_rate=config.bit_error_rate,
            ca_pool=world.ca_pool,
            interceptor=world.interceptor,
        )

    snapshots: list[ScanSnapshot] = []
    with tel.span("timeline_walk"):
        for month in Month.range(config.start, config.end):
            world.step(month)
            source = source_for_month(month)
            if source is None:
                continue
            snapshot = scanner.scan(month, source, world.populations)
            if source.includes_unchained_intermediates:
                reconstruct_chains(snapshot, store)
            snapshots.append(snapshot)
            logger.info(
                "scan %s (%s): %d records", month, source.name, snapshot.host_count
            )
        tel.annotate(snapshots=len(snapshots))

    with tel.span("corpus"):
        protocol_corpora = build_protocol_corpora(
            scale=config.scale,
            factory=world.background_factory,
            rng=_model_rng(config.seed, "protocols"),
        )
        corpus: dict[int, None] = {}
        for n in store.moduli_with_weights():
            corpus[n] = None
        for protocol_corpus in protocol_corpora:
            for n in protocol_corpus.all_moduli():
                corpus[n] = None
        moduli = list(corpus)
        tel.annotate(distinct_moduli=len(moduli))
    logger.info("batch GCD over %d distinct moduli", len(moduli))

    with tel.span(
        "batch_gcd",
        k=config.batchgcd.k,
        processes=config.batchgcd.processes,
    ):
        choice = select_engine(len(moduli), config.batchgcd)
        engine = choice.engine
        tel.annotate(
            engine=choice.name,
            engine_processes=choice.processes,
            engine_reason=choice.reason,
        )
        logger.info("batch-GCD engine: %s (%s)", choice.name, choice.reason)
        batch_result = engine.run(moduli)

    with tel.span("fingerprint"):
        fingerprints = fingerprint_study(
            store,
            batch_result,
            openssl_table=config.openssl_table(),
            check_safe_primes=False,
        )

    with tel.span("analysis"):
        vulnerable = fingerprints.vulnerable_moduli()
        series = build_series(
            snapshots, store, fingerprints.vendor_by_cert, vulnerable
        )
        transitions = analyze_transitions(
            snapshots, store, fingerprints.vendor_by_cert, vulnerable
        )
        eol_dates = {
            model.display_model: (model.eol, model.end_of_sale)
            for model in DEVICE_CATALOG
            if model.display_model and model.eol is not None
        }
        result = StudyResult(
            config=config,
            store=store,
            snapshots=snapshots,
            protocol_corpora=protocol_corpora,
            batch_result=batch_result,
            cluster_stats=engine.last_stats,
            fingerprints=fingerprints,
            series=series,
            transitions=transitions,
            table1=build_table1(snapshots, store, protocol_corpora, vulnerable),
            table2=build_table2(),
            table3=build_table3(snapshots, store),
            table4=build_table4(snapshots, store, protocol_corpora, vulnerable),
            table5=build_table5(fingerprints),
            heartbleed=analyze_heartbleed(series),
            eol=analyze_eol(
                snapshots, store, fingerprints.model_by_cert, eol_dates
            ),
            exposure=(
                analyze_exposure(snapshots[-1], store, vulnerable)
                if snapshots
                else None
            ),
            ibm_ip_reuse=analyze_ip_reuse(
                snapshots, store, fingerprints.vendor_by_cert, vulnerable, "IBM"
            ),
            weak_moduli_truth=world.weak_moduli_truth()
            | {
                n
                for protocol_corpus in protocol_corpora
                for n in protocol_corpus.weak_moduli_truth
            },
            divisors=world.divisors,
        )
    return result
