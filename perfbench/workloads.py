"""The three workloads: how each is driven, checked and measured.

Every operation runs in a fresh process of the program; this module
drives those processes from outside.  Each workload returns a :class:`Outcome` whose
``e2e`` holds the end-to-end metrics of the untraced operations and,
when traced, ``layers`` the per-layer rows of the traced ones.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import inputs
import layers
import loadgen
from stats import median, tail
from tracer import summarize

HERE = Path(__file__).resolve().parent
STUDY_DIGESTS = HERE / "study_digests.json"

#: Open-loop arrival rate, jobs/s: a fraction of what the incremental
#: service drains on 2 cores, so the queue stays short and turnaround
#: measures the request path rather than queueing.
SERVICE_RATE = 4.0
#: Service launches per run; set-up time is their median.
SETUP_REPEATS = 3
#: Seconds after the last scheduled send by which every webhook must land.
DRAIN_GRACE = 15.0
#: A run whose generator woke later than this for any send is invalid.
LATE_BOUND_S = 0.1
#: Upper bound on one operation's process, seconds.
CHILD_TIMEOUT = 170
#: Pause before reading ``/v1/metrics`` around the traced phase: the
#: worker counts a webhook attempt just after the receiver answers it.
SETTLE_S = 0.2


@dataclass
class Outcome:
    """One run's result before formatting."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Context:
    """Where and how long one run works."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    clock: Any
    _ops: int = 0

    def child(self, kind: str, arg: str, traced: bool) -> dict | None:
        """Run one operation in a fresh process; ``None`` if it crashed."""
        self._ops += 1
        out = self.work / f"op-{self._ops}.json"
        spans = self.work / f"op-{self._ops}.spans.json"
        command = [sys.executable, str(HERE / "child.py"), kind, arg, str(out)]
        if traced:
            command.append(str(spans))
        started = self.clock.wall()
        with open(self.work / "child.log", "ab") as log:
            code = subprocess.run(
                command, cwd=self.root, stdout=subprocess.DEVNULL, stderr=log,
                timeout=CHILD_TIMEOUT, check=False,
            ).returncode
        if code != 0:
            return None
        data = json.loads(out.read_text())
        data["setup_s"] = data["ready"] - started
        if traced:
            data["trace"] = json.loads(spans.read_text())
        return data


def _ms(values: list[float]) -> tuple[float, float]:
    """(median, tail) of second-valued samples, in milliseconds."""
    return median(values) * 1000, tail(values) * 1000


def _median_ms(values: list[float]) -> float:
    return median(values) * 1000


def _average(rows: list[dict[str, float]]) -> dict[str, float]:
    """Mean of each row measured by every operation; the others stay missing."""
    names = set.intersection(*(set(row) for row in rows))
    return {name: sum(row[name] for row in rows) / len(rows) for name in sorted(names)}


def _overhead(traced: list[float], plain: list[float]) -> float:
    return median(traced) / median(plain) - 1 if traced and plain else 0.0


def _batch_like(ctx: Context, kind: str, arg: str, check, rows) -> Outcome:
    """Fresh-process operations until the run's seconds are spent.

    Traced runs alternate an untraced and a traced operation, so the
    tracing overhead compares like with like.
    """
    result = Outcome()
    ctx.child("import", "-", traced=False)  # compile bytecode, fill caches
    plain: list[dict] = []
    traced: list[dict] = []
    begin = ctx.clock.wall()
    while True:
        for is_traced in (False, True) if ctx.trace else (False,):
            op = ctx.child(kind, arg, traced=is_traced)
            result.record(["operation process failed"] if op is None else check(op))
            if op is not None:
                (traced if is_traced else plain).append(op)
        if ctx.clock.wall() - begin >= ctx.seconds:
            break
    if not plain:
        raise RuntimeError(f"every {kind} operation failed; see {ctx.work / 'child.log'}")
    walls = [op["op_s"] for op in plain]
    result.e2e = {
        "setup_s": median([op["setup_s"] for op in plain]),
        "op_p50_ms": _median_ms(walls),
    }
    if traced:
        result.layers = _average([rows(op) for op in traced])
        result.layers["tracing.overhead_ratio"] = _overhead(
            [op["op_s"] for op in traced], walls
        )
    return result


def study(ctx: Context) -> Outcome:
    """``run_study(StudyConfig.tiny(seed))``, one study per fresh process."""
    recorded = json.loads(STUDY_DIGESTS.read_text())
    if set(recorded) != {str(s) for s in range(inputs.STUDY_SEEDS)}:
        raise RuntimeError(
            f"{STUDY_DIGESTS.name} must hold exactly study seeds 0..{inputs.STUDY_SEEDS - 1};"
            " re-record it with perfbench/record_digests.py"
        )
    study_seed = ctx.seed % inputs.STUDY_SEEDS

    def check(op: dict) -> list[str]:
        return checks.check_study(op["digest"], recorded[str(study_seed)],
                                  op["clean_not_truth"])

    def rows(op: dict) -> dict[str, float]:
        stats = summarize(op["trace"]["spans"])
        return layers.study_rows(stats, op["trace"]["counts"], op["report"],
                                 op["store_size"], op["cluster_cpu_s"])

    return _batch_like(ctx, "study", str(study_seed), check, rows)


def batchgcd(ctx: Context) -> Outcome:
    """The ``repro-batchgcd --engine auto --k 16`` path over a seeded corpus."""
    corpus = inputs.batch_corpus(ctx.seed)
    path = ctx.work / "moduli.txt"
    path.write_text("".join(f"{n:x}\n" for n in corpus.moduli))

    def check(op: dict) -> list[str]:
        return checks.check_batchgcd(corpus, op["lines"])

    def rows(op: dict) -> dict[str, float]:
        stats = summarize(op["trace"]["spans"])
        return layers.batch_rows(stats, op["report"], op["processes"], op["cluster_cpu_s"])

    return _batch_like(ctx, "batchgcd", str(path), check, rows)


# -- the service ---------------------------------------------------------------


def _hexes(job: inputs.Job) -> list[str]:
    return [f"{n:x}" for n in job.moduli]


class _Service:
    """One service process: launch, readiness, shutdown."""

    def __init__(self, ctx: Context, state_dir: Path, spans: Path | None) -> None:
        self.ctx = ctx
        self.state_dir = state_dir
        args = ["--state-dir", str(state_dir), "--port", "0", "--engine-mode", "incremental"]
        if spans is None:
            command = [sys.executable, "-m", "repro.service", *args]
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(spans), *args]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.started = ctx.clock.wall()
        with open(ctx.work / "service.log", "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=ctx.root, env=env, stdout=subprocess.DEVNULL, stderr=log
            )
        self.port = 0

    async def ready(self, timeout: float = 60.0) -> None:
        """Wait until ``/healthz`` answers 200."""
        endpoint = self.state_dir / "endpoint.json"
        deadline = self.ctx.clock.wall() + timeout
        while self.ctx.clock.wall() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited with {self.proc.returncode}")
            if endpoint.exists():
                self.port = json.loads(endpoint.read_text())["port"]
                probe = loadgen.HttpPool("127.0.0.1", self.port, self.ctx.clock, size=1)
                try:
                    status, _body, _done = await probe.request("GET", "/healthz")
                    if status == 200:
                        return
                except loadgen.TRANSPORT_ERRORS:
                    pass
                finally:
                    await probe.close()
            await asyncio.sleep(0.005)
        raise RuntimeError("service not ready in time")

    async def stop(self) -> None:
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.to_thread(self.proc.wait, 20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            await asyncio.to_thread(self.proc.wait)


async def _bootstrap(service: _Service, receiver: loadgen.WebhookReceiver,
                     plan: inputs.TrafficPlan, key: str) -> None:
    """Submit the bulk job that bootstraps the incremental store; await it."""
    pool = loadgen.HttpPool("127.0.0.1", service.port, service.ctx.clock, size=1)
    try:
        outcomes = await loadgen.run_jobs(
            pool, receiver, service.ctx.clock,
            [(key, service.ctx.clock.wall(), _hexes(plan.bootstrap))],
            deadline=service.ctx.clock.wall() + 60, read_now=False,
        )
    finally:
        await pool.close()
    outcome = outcomes[0]
    if outcome.errors or outcome.hook_body.get("status") != "succeeded":
        raise RuntimeError(f"bootstrap job failed: {outcome.errors or outcome.hook_body}")


async def _setup(ctx: Context, receiver, plan, tag: str, spans: Path | None,
                 repeats: int) -> tuple[_Service, list[float]]:
    """Launch and bootstrap ``repeats`` times from scratch; keep the last one running."""
    times = []
    for attempt in range(repeats):
        service = _Service(ctx, ctx.work / f"state-{tag}-{attempt}", spans)
        try:
            await service.ready()
            await _bootstrap(service, receiver, plan, f"{tag}-boot{attempt}")
        except BaseException:
            await service.stop()
            raise
        times.append(ctx.clock.wall() - service.started)
        if attempt < repeats - 1:
            await service.stop()
    return service, times


async def _get_json(service: _Service, path: str) -> Any:
    pool = loadgen.HttpPool("127.0.0.1", service.port, service.ctx.clock, size=1)
    try:
        _status, body, _done = await pool.request("GET", path)
    finally:
        await pool.close()
    return body


async def _phase(ctx: Context, service: _Service, receiver, plan, tag: str) -> dict[str, Any]:
    """The measured traffic: the open loop, then the burst.

    ``tag`` keeps webhook keys distinct between phases of one run.
    """
    pool = loadgen.HttpPool("127.0.0.1", service.port, ctx.clock)
    t0 = ctx.clock.wall() + 0.05
    opened = [
        (f"{tag}-j{i}", t0 + offset, _hexes(job))
        for i, (job, offset) in enumerate(zip(plan.jobs, plan.offsets))
    ]
    try:
        steady = await loadgen.run_jobs(
            pool, receiver, ctx.clock, opened,
            deadline=t0 + ctx.seconds + DRAIN_GRACE, read_now=True,
        )
        burst_at = ctx.clock.wall()
        burst = await loadgen.run_jobs(
            pool, receiver, ctx.clock,
            [(f"{tag}-b{i}", burst_at, _hexes(job)) for i, job in enumerate(plan.burst)],
            deadline=burst_at + DRAIN_GRACE, read_now=False,
        )
        for outcome in burst:
            if outcome.hooked is not None:
                await loadgen.read_result(pool, outcome)
    finally:
        await pool.close()
    drained = [o.hooked for o in burst if o.hooked is not None]
    return {
        "since": t0,
        "burst_at": burst_at,
        "steady": steady,
        "burst": burst,
        "jobs_per_s": len(drained) / (max(drained) - burst_at) if drained else 0.0,
        "connections": pool.opened,
        "requests": pool.requests,
        "round_trip_s": pool.round_trip_s,
    }


def _check_jobs(plan: inputs.TrafficPlan, phase: dict, result: Outcome) -> None:
    """Each job is checked against everything the store ingested before it."""
    jobs = dict(zip((o.key for o in phase["steady"]), plan.jobs))
    jobs.update(zip((o.key for o in phase["burst"]), plan.burst))
    history: list[tuple[int, int]] = list(plan.bootstrap.factors)
    everything = phase["steady"] + phase["burst"]
    for outcome in sorted(everything, key=lambda o: o.seq):
        job = jobs[outcome.key]
        problems = list(outcome.errors)
        if not problems:
            flags = checks.expected_flags(job, history)
            problems = checks.check_job(job, flags, outcome.result or {}, outcome.hook_body)
        result.record([f"{outcome.key}: {p}" for p in problems])
        if outcome.job_id is not None:
            history.extend(job.factors)


def _turnaround(phase: dict) -> list[float]:
    return [o.hooked - o.scheduled for o in phase["steady"] if o.hooked]


def _e2e(phase: dict, setup_times: list[float]) -> dict[str, float]:
    return {"setup_s": median(setup_times), "op_p50_ms": _median_ms(_turnaround(phase))}


def _client_rows(phase: dict) -> dict[str, float]:
    steady = phase["steady"]
    submit = [o.submitted - o.scheduled for o in steady if o.submitted]
    read = [o.read_done - o.hooked for o in steady if o.read_done]
    submit_p50, submit_tail = _ms(submit)
    read_p50, read_tail = _ms(read)
    return {
        "client.turnaround_tail_ms": tail(_turnaround(phase)) * 1000,
        "client.burst_jobs_per_s": phase["jobs_per_s"],
        "client.submit_p50_ms": submit_p50,
        "client.submit_tail_ms": submit_tail,
        "client.read_p50_ms": read_p50,
        "client.read_tail_ms": read_tail,
        "loadgen.late_max_ms": max(o.late for o in steady) * 1000,
        "loadgen.connections": phase["connections"],
    }


def _journal_rows(journal: Path, offset: int, jobs: int) -> tuple[dict, list[dict]]:
    """Journal growth per job and the per-job reports journalled after ``offset``."""
    with open(journal, "rb") as handle:
        handle.seek(offset)
        tail_bytes = handle.read()
    reports = []
    for line in tail_bytes.decode().splitlines():
        event = json.loads(line)
        if event.get("event") == "completed" and event.get("report"):
            reports.append(event["report"])
    rows = {"queue.journal_bytes_per_job": len(tail_bytes) / jobs}
    if reports:
        sizes = [len(json.dumps(r, sort_keys=True)) for r in reports]
        rows["worker.report_bytes_per_job"] = sum(sizes) / len(sizes)
    return rows, reports


async def _service_run(ctx: Context) -> Outcome:
    plan = inputs.traffic_plan(ctx.seed, SERVICE_RATE, ctx.seconds)
    result = Outcome()
    receiver = loadgen.WebhookReceiver(ctx.clock)
    await receiver.start()
    try:
        service, setup_times = await _setup(ctx, receiver, plan, "plain", None, SETUP_REPEATS)
        try:
            phase = await _phase(ctx, service, receiver, plan, "plain")
        finally:
            await service.stop()
        _check_jobs(plan, phase, result)
        late = max(o.late for o in phase["steady"])
        if late > LATE_BOUND_S:
            result.record([f"generator fell {late * 1000:.0f} ms behind schedule"])
        result.e2e = _e2e(phase, setup_times)
        if ctx.trace:
            result.layers, traced_p50 = await _traced_service(ctx, receiver, plan, result)
            result.layers.update(_client_rows(phase))
            result.layers["tracing.overhead_ratio"] = traced_p50 / result.e2e["op_p50_ms"] - 1
    finally:
        await receiver.close()
    return result


async def _traced_service(ctx: Context, receiver, plan,
                          result: Outcome) -> tuple[dict[str, float], float]:
    """The same traffic against the traced launcher.

    Returns the per-layer rows and the traced turnaround median.
    """
    spans_path = ctx.work / "service.spans.json"
    service, _times = await _setup(ctx, receiver, plan, "traced", spans_path, 1)
    try:
        await asyncio.sleep(SETTLE_S)
        before = await _get_json(service, "/v1/metrics")
        journal = service.state_dir / "journal.jsonl"
        offset = journal.stat().st_size
        phase = await _phase(ctx, service, receiver, plan, "traced")
        await asyncio.sleep(SETTLE_S)
        after = await _get_json(service, "/v1/metrics")
    finally:
        await service.stop()
    _check_jobs(plan, phase, result)
    trace = json.loads(spans_path.read_text())
    spans = trace["spans"]
    since = phase["since"]
    stats = summarize(spans, since=since)
    setup_stats = summarize([s for s in spans if s[1] < since])
    jobs = len(phase["steady"]) + len(phase["burst"])
    journal_rows, reports = _journal_rows(journal, offset, jobs)
    rows = layers.service_rows(stats, setup_stats, spans, (since, phase["burst_at"]),
                               before, after, reports)
    rows.update(journal_rows)
    if "http.requests" in rows and "http.dispatch.busy_s" in rows:
        rows["http.requests"] -= 1  # the closing /v1/metrics read counts itself
        rows["http.outside_dispatch_mean_ms"] = (
            (phase["round_trip_s"] - rows["http.dispatch.busy_s"]) / rows["http.requests"] * 1000
        )
    return rows, _median_ms(_turnaround(phase))


def service_incremental(ctx: Context) -> Outcome:
    """``python -m repro.service --engine-mode incremental`` under open-loop traffic."""
    ctx.child("import", "-", traced=False)  # compile bytecode, fill caches
    return asyncio.run(_service_run(ctx))


WORKLOADS = {
    "study": study,
    "batchgcd": batchgcd,
    "service-incremental": service_incremental,
}
