"""The program's layers: what the traced run wraps and how rows are derived.

Three sources feed the per-layer rows (``spec.json`` names the source of
every row):

- *wrapper* spans this benchmark records around the public functions in
  the ``*_WRAPS`` tables below (see :mod:`tracer`);
- the program's own RunReport: stage and engine spans, counters and
  timers (``run_study(..., telemetry=Telemetry())`` and the per-job
  reports the service journals);
- the service's ``GET /v1/metrics`` counters and timers.

A row whose source never fired (a wrapper bypassed, a span or counter
not emitted) is left out rather than read as 0, so ``run.py`` can refuse
a run that misses a row listed for its workload.  Counters documented
as 0 when all is well (retries, webhook failures) are the exception.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from stats import median
from tracer import LayerStats, Tracer

__all__ = [
    "STUDY_WRAPS",
    "BATCH_WRAPS",
    "SERVICE_WRAPS",
    "batch_rows",
    "install",
    "report_rows",
    "service_rows",
    "study_rows",
]


def _job_id(args: tuple, result: Any) -> str | None:
    job = result[0] if isinstance(result, tuple) else result
    return getattr(job, "job_id", None)


#: ``(span name, target, count_only)``; several targets may share a name.
STUDY_WRAPS = (
    ("population.step", "repro.devices.population:ModelPopulation.step", False),
    ("keygen.generate", "repro.entropy.keygen:SharedPrimeProfile.generate", False),
    ("keygen.generate", "repro.entropy.keygen:IbmNinePrimeProfile.generate", False),
    ("keygen.generate", "repro.entropy.keygen:HealthyProfile.generate", False),
    ("keygen.derive_prime", "repro.entropy.keygen:WeakKeyFactory.derive_prime", True),
    ("keygen.prime_gen", "repro.crypto.primes:generate_prime", False),
    ("keygen.prime_gen", "repro.crypto.primes:openssl_style_prime", False),
    ("primality.tests", "repro.numt.primality:is_probable_prime", True),
    ("certfactory.build", "repro.devices.certfactory:build_certificate", False),
    ("scanner.scan", "repro.scans.scanner:HttpsScanner.scan", False),
    ("scanner.chains", "repro.scans.scanner:reconstruct_chains", False),
    ("records.intern", "repro.scans.records:CertificateStore.intern", False),
    ("protocols.build", "repro.scans.protocols:build_protocol_corpora", False),
    ("analysis.series", "repro.analysis.timeseries:build_series", False),
    ("analysis.transitions", "repro.analysis.transitions:analyze_transitions", False),
    ("engine.run", "repro.core.clustered:ClusteredBatchGcd.run", False),
    ("results.resolve", "repro.core.results:BatchGcdResult.resolve", False),
)

BATCH_WRAPS = (
    ("cli.read_moduli", "repro.batchgcd_cli:read_moduli", False),
    ("cli.format_results", "repro.batchgcd_cli:format_results", False),
    ("engine.run", "repro.core.clustered:ClusteredBatchGcd.run", False),
    ("results.resolve", "repro.core.results:BatchGcdResult.resolve", False),
)

SERVICE_WRAPS = (
    ("models.parse_submission", "repro.service.models:parse_submission", False),
    ("queue.submit", "repro.service.queue:JobQueue.submit", False),
    ("queue.claim", "repro.service.queue:JobQueue.claim", False),
    ("queue.complete", "repro.service.queue:JobQueue.complete", False),
    ("fsio.fsync", "repro.faults.fsio:fsync_file", False),
    ("worker.run", "repro.service.worker:KeyCheckRunner.__call__", False),
    ("worker.webhook", "repro.service.worker:WebhookNotifier.deliver", False),
    ("engine.run", "repro.core.clustered:ClusteredBatchGcd.run", False),
    ("results.resolve", "repro.core.results:BatchGcdResult.resolve", False),
    ("store.open", "repro.numt.incremental:ProductTreeStore.__init__", False),
    ("store.apply_job", "repro.numt.incremental:ProductTreeStore.apply_job", False),
    ("store.bootstrap", "repro.numt.incremental:ProductTreeStore.bootstrap", False),
    ("journal.append", "repro.faults.journal:MutationJournal.append", False),
)

#: Spans whose key is the job id, for per-job queue wait.
_KEYED = {"queue.submit", "queue.claim"}


def install(tracer: Tracer, wraps: Iterable[tuple[str, str, bool]]) -> None:
    """Install every wrapper of a table."""
    for name, target, count_only in wraps:
        tracer.install(
            target, name, count_only=count_only,
            key=_job_id if name in _KEYED else None,
        )


def _busy(stats: Mapping[str, LayerStats], name: str) -> float | None:
    entry = stats.get(name)
    return entry.busy if entry else None


def _self(stats: Mapping[str, LayerStats], name: str) -> float | None:
    entry = stats.get(name)
    return entry.self_time if entry else None


def _calls(stats: Mapping[str, LayerStats], name: str) -> int | None:
    entry = stats.get(name)
    return entry.calls if entry else None


def _sum(*parts: float | None) -> float | None:
    """The sum, or ``None`` when a part is missing."""
    return None if None in parts else sum(parts)


def _ratio(part: float | None, whole: float | None) -> float | None:
    return None if part is None or not whole else part / whole


def _measured(rows: Mapping[str, float | None]) -> dict[str, float]:
    """Drop the rows whose source never fired."""
    return {name: value for name, value in rows.items() if value is not None}


def _walk(spans: Iterable[Mapping[str, Any]]):
    for span in spans:
        yield span
        yield from _walk(span.get("children", ()))


def report_rows(report: Mapping[str, Any]) -> dict[str, float]:
    """Batch-GCD engine rows from a program RunReport dict."""
    spans = list(_walk(report.get("spans", ())))
    counters = report.get("counters", {})
    timer = report.get("timers", {}).get("batch_gcd.queue_latency")
    trees = [s["wall_seconds"] for s in spans if s["name"] == "batch_gcd.subset_tree"]
    passes = [s for s in spans if s["name"] == "batch_gcd.task.remainder_tree"]
    own = [s["wall_seconds"] for s in passes if s["attrs"].get("own")]
    foreign = [s["wall_seconds"] for s in passes if not s["attrs"].get("own")]
    tasks = [s["wall_seconds"] for s in spans if s["name"] == "batch_gcd.task"]
    return _measured({
        "batchgcd.tree_build.busy_s": sum(trees) if trees else None,
        "batchgcd.tree_build.calls": len(trees) or None,
        "batchgcd.own_pass.busy_s": sum(own) if own else None,
        "batchgcd.foreign_pass.busy_s": sum(foreign) if foreign else None,
        "batchgcd.tasks": counters.get("batch_gcd.tasks"),
        "batchgcd.task.max_s": max(tasks, default=None),
        "batchgcd.queue.wait_s": timer["wall_seconds"] if timer else None,
        "batchgcd.ipc_bytes": _sum(counters.get("batch_gcd.ipc_broadcast_bytes"),
                                   counters.get("batch_gcd.ipc_task_bytes")),
        # Counted only on faults: absent means none happened.
        "batchgcd.retries": counters.get("batch_gcd.retries", 0)
        + counters.get("batch_gcd.pool_rebuilds", 0),
    })


def study_rows(stats: Mapping[str, LayerStats], counts: Mapping[str, int],
               report: Mapping[str, Any], store_size: int,
               cluster_cpu_s: float | None) -> dict[str, float]:
    """Every row the study workload exercises."""
    spans = list(_walk(report.get("spans", ())))
    stage = {s["name"]: s["wall_seconds"] for s in report.get("spans", ())}
    named = {s["name"]: s["wall_seconds"] for s in spans}
    batch_attrs = next(
        (s["attrs"] for s in report.get("spans", ()) if s["name"] == "batch_gcd"), {}
    )
    timeline_s = _sum(
        _busy(stats, "population.step"),
        _busy(stats, "scanner.scan"),
        _busy(stats, "scanner.chains"),
    )
    intern_calls = _calls(stats, "records.intern")
    rows: dict[str, float | None] = {
        f"pipeline.{name}_s": stage.get(name)
        for name in (
            "world_build", "timeline_walk", "corpus", "batch_gcd",
            "fingerprint", "analysis",
        )
    }
    rows.update({
        "pipeline.timeline_walk.covered_ratio": _ratio(timeline_s, stage.get("timeline_walk")),
        "population.step.self_s": _self(stats, "population.step"),
        "population.step.calls": _calls(stats, "population.step"),
        "keygen.generate.busy_s": _busy(stats, "keygen.generate"),
        "keygen.generate.calls": _calls(stats, "keygen.generate"),
        "keygen.derive_prime.calls": counts.get("keygen.derive_prime"),
        "keygen.prime_gen.busy_s": _busy(stats, "keygen.prime_gen"),
        "keygen.prime_gen.calls": _calls(stats, "keygen.prime_gen"),
        "primality.tests": counts.get("primality.tests"),
        "certfactory.build.busy_s": _busy(stats, "certfactory.build"),
        "certfactory.build.calls": _calls(stats, "certfactory.build"),
        "scanner.scan.self_s": _self(stats, "scanner.scan"),
        "scanner.records": report.get("counters", {}).get("scans.records"),
        "scanner.chains.busy_s": _busy(stats, "scanner.chains"),
        "records.intern.busy_s": _busy(stats, "records.intern"),
        "records.intern.calls": intern_calls,
        "records.intern.new_ratio": _ratio(store_size, intern_calls),
        "protocols.build.busy_s": _busy(stats, "protocols.build"),
        "analysis.series.busy_s": _busy(stats, "analysis.series"),
        "analysis.transitions.busy_s": _busy(stats, "analysis.transitions"),
        "select.processes": batch_attrs.get("engine_processes"),
        "batchgcd.run.wall_s": _busy(stats, "engine.run"),
        "batchgcd.run.cpu_s": cluster_cpu_s,
        "results.resolve.busy_s": _busy(stats, "results.resolve"),
        "results.resolve.calls": _calls(stats, "results.resolve"),
    })
    for name in ("rules", "triage", "cliques", "extrapolate", "openssl"):
        rows[f"fingerprint.{name}_s"] = named.get(f"fingerprint.{name}")
    rows.update(report_rows(report))
    return _measured(rows)


def batch_rows(stats: Mapping[str, LayerStats], report: Mapping[str, Any],
               processes: int | None, cluster_cpu_s: float | None) -> dict[str, float]:
    """Every row the batch-GCD workload exercises."""
    rows = {
        "select.processes": processes,
        "batchgcd.run.wall_s": _busy(stats, "engine.run"),
        "batchgcd.run.cpu_s": cluster_cpu_s,
        "results.resolve.busy_s": _busy(stats, "results.resolve"),
        "results.resolve.calls": _calls(stats, "results.resolve"),
        "cli.read_moduli.busy_s": _busy(stats, "cli.read_moduli"),
        "cli.format_results.busy_s": _busy(stats, "cli.format_results"),
    }
    rows.update(report_rows(report))
    return _measured(rows)


def service_rows(stats: Mapping[str, LayerStats], setup_stats: Mapping[str, LayerStats],
                 spans: list[list[Any]], open_loop: tuple[float, float],
                 metrics_before: Mapping[str, Any], metrics_after: Mapping[str, Any],
                 job_reports: list[Mapping[str, Any]]) -> dict[str, float]:
    """Every row the service workload exercises (the measured phase, except
    the set-up rows ``engine.run.busy_s`` and ``store.bootstrap.busy_s``:
    the bootstrap job's clustered run and store bootstrap).

    ``open_loop`` is the open-loop part of the phase (start, end): queue
    wait is taken there, not in the burst.  ``metrics_before`` and
    ``metrics_after`` are ``/v1/metrics`` bodies read around the phase;
    ``job_reports`` the per-job RunReports the service journalled for
    jobs of the phase.
    """

    def counter(name: str, default: int | None = None) -> float | None:
        after = metrics_after["counters"].get(name, default)
        return None if after is None else after - metrics_before["counters"].get(name, 0)

    def timer_sum(name: str) -> float | None:
        after = metrics_after["timers"].get(name)
        if after is None:
            return None
        return after["wall_seconds"] - metrics_before["timers"].get(name, {}).get(
            "wall_seconds", 0.0
        )

    start, end = open_loop
    submitted = {
        s[5]: s[2] for s in spans if s[0] == "queue.submit" and start <= s[1] < end
    }
    waits = [
        (s[2] - submitted[s[5]]) * 1000
        for s in spans
        if s[0] == "queue.claim" and s[5] in submitted
    ]
    inserts = 0
    rebuild: list[int] = []
    nodes: list[int] = []
    for report in job_reports:
        for span in _walk(report.get("spans", ())):
            inserts += span["name"] == "batch_gcd.incremental.insert"
        counters, gauges = report.get("counters", {}), report.get("gauges", {})
        if "batch_gcd.incremental.rebuild_bytes" in counters:
            rebuild.append(counters["batch_gcd.incremental.rebuild_bytes"])
        if "batch_gcd.incremental.store_nodes" in gauges:
            nodes.append(gauges["batch_gcd.incremental.store_nodes"])
    return _measured({
        "http.dispatch.busy_s": timer_sum("service.http.request_seconds"),
        "http.requests": counter("service.http.requests"),
        "models.parse_submission.busy_s": _busy(stats, "models.parse_submission"),
        "queue.submit.busy_s": _busy(stats, "queue.submit"),
        "queue.claim.busy_s": _busy(stats, "queue.claim"),
        "queue.complete.busy_s": _busy(stats, "queue.complete"),
        "queue.wait_p50_ms": median(waits) if waits else None,
        "fsio.fsync.calls": _calls(stats, "fsio.fsync"),
        "fsio.fsync.busy_s": _busy(stats, "fsio.fsync"),
        "worker.run.busy_s": _busy(stats, "worker.run"),
        "worker.jobs": _calls(stats, "worker.run"),
        "worker.webhook.busy_s": _busy(stats, "worker.webhook"),
        "worker.webhook.attempts": counter("service.webhook.attempts"),
        # Counted only on failure: absent means none happened.
        "worker.webhook.failures": counter("service.webhook.failures", default=0),
        "engine.run.busy_s": _busy(setup_stats, "engine.run"),
        "results.resolve.busy_s": _busy(stats, "results.resolve"),
        "results.resolve.calls": _calls(stats, "results.resolve"),
        "store.open.busy_s": _busy(stats, "store.open"),
        "store.open.calls": _calls(stats, "store.open"),
        "store.apply_job.busy_s": _busy(stats, "store.apply_job"),
        "store.insert.calls": inserts or None,
        "store.rebuild_bytes": sum(rebuild) if rebuild else None,
        "store.nodes": max(nodes, default=None),
        "store.bootstrap.busy_s": _busy(setup_stats, "store.bootstrap"),
        "journal.append.calls": _calls(stats, "journal.append"),
        "journal.append.busy_s": _busy(stats, "journal.append"),
    })
