"""HTTP end-to-end tests for the key-checking service.

One embedded :class:`~repro.service.ServiceApp` (real asyncio server,
real engine, real journal) per test class, driven through genuine HTTP
over a loopback socket.  The headline assertion is determinism across
entry points: the factored output served by the API is **identical** to
what the clustered engine returns for the same corpus.
"""

import http.client
import json
import logging
import random
import socket
import threading
import time

import pytest

from repro.core.clustered import ClusteredBatchGcd
from repro.crypto.primes import generate_prime
from repro.service import (
    JobQueue,
    JobResult,
    ServiceApp,
    ServiceConfig,
    ServiceWorker,
    WebhookNotifier,
)

#: Seeded weak corpus shared by the E2E assertions: moduli 0/2/5 share
#: primes, the rest are healthy.
def _weak_corpus(seed=2016, size=8, bits=40):
    rng = random.Random(seed)
    shared = generate_prime(bits, rng)
    moduli = []
    for index in range(size):
        p = shared if index in (0, 2, 5) else generate_prime(bits, rng)
        moduli.append(p * generate_prime(bits, rng))
    return moduli


CORPUS = _weak_corpus()


class _Api:
    """Minimal JSON-over-HTTP helper against the embedded app."""

    def __init__(self, port, headers=None):
        self.port = port
        self.headers = headers or {}

    def request(self, method, path, payload=None, raw_body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        body = raw_body if raw_body is not None else (
            None if payload is None else json.dumps(payload)
        )
        try:
            conn.request(
                method, path, body=body, headers={**self.headers, **(headers or {})}
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def wait_status(self, job_id, wanted, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.request("GET", f"/v1/jobs/{job_id}/status")
            assert status == 200, body
            if body["status"] in wanted:
                return body
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never reached {wanted}: {body}")


@pytest.fixture(scope="class")
def app(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("service-http")
    service = ServiceApp(ServiceConfig(state_dir=str(state_dir)))
    port = service.start_background()
    yield service, _Api(port)
    service.shutdown()


class TestEndToEnd:
    def test_submitted_corpus_matches_engine_exactly(self, app):
        """The service serves the same math as the library — bit for bit."""
        _, api = app
        status, body = api.request(
            "POST", "/v1/jobs", {"moduli": [f"{n:x}" for n in CORPUS]}
        )
        assert status == 202 and body["created"] is True
        job_id = body["job_id"]

        final = api.wait_status(job_id, {"succeeded"})
        assert final["attempts"] == 1
        assert final["report"]["enabled"] is True  # per-job RunReport served
        span_names = [span["name"] for span in final["report"]["spans"]]
        assert "service.job" in span_names

        status, result = api.request("GET", f"/v1/jobs/{job_id}/result")
        assert status == 200

        reference = ClusteredBatchGcd(k=4).run(CORPUS)
        expected_divisors = [
            [index, f"{reference.divisors[index]:x}"]
            for index in reference.vulnerable_indices
        ]
        expected_factored = [
            {"modulus": f"{n:x}", "p": f"{p:x}", "q": f"{q:x}"}
            for n, p, q in sorted(
                (fact.modulus, fact.p, fact.q)
                for fact in reference.resolve().values()
            )
        ]
        assert result["divisors"] == expected_divisors
        assert result["factored"] == expected_factored
        assert result["vulnerable_count"] == 3
        assert result["moduli_checked"] == len(CORPUS)

    def test_resubmission_is_idempotent_over_http(self, app):
        _, api = app
        payload = {"moduli": [f"{n:x}" for n in CORPUS]}
        status_a, first = api.request("POST", "/v1/jobs", payload)
        status_b, replay = api.request("POST", "/v1/jobs", payload)
        assert status_b == 200 and replay["created"] is False
        assert replay["job_id"] == first["job_id"]

    def test_certificates_shape_accepted(self, app):
        _, api = app
        moduli = _weak_corpus(seed=5, size=4)
        status, body = api.request(
            "POST",
            "/v1/jobs",
            {"certificates": [{"modulus": f"{n:x}"} for n in moduli]},
        )
        assert status == 202
        assert body["moduli"] == 4
        api.wait_status(body["job_id"], {"succeeded"})

    def test_healthz_and_queue_stats(self, app):
        _, api = app
        status, body = api.request("GET", "/healthz")
        assert status == 200 and body["ok"] is True
        status, stats = api.request("GET", "/v1/queue")
        assert status == 200
        assert set(stats) == {"jobs", "by_status", "paused"}

    def test_metrics_served_as_run_report(self, app):
        _, api = app
        status, report = api.request("GET", "/v1/metrics")
        assert status == 200
        assert report["enabled"] is True
        assert report["counters"]["service.http.requests"] >= 1


class TestErrorModel:
    @pytest.mark.parametrize(
        "method, path, payload, want_status, want_code",
        [
            ("POST", "/v1/jobs", {"moduli": ["zz"]}, 400, "bad_modulus"),
            ("POST", "/v1/jobs", {}, 400, "empty_submission"),
            ("GET", "/v1/jobs/job-nope", None, 404, "not_found"),
            ("GET", "/nope", None, 404, "not_found"),
            ("DELETE", "/v1/jobs", None, 405, "method_not_allowed"),
            ("POST", "/v1/jobs/job-nope/pause", None, 404, "not_found"),
        ],
    )
    def test_stable_error_codes(self, app, method, path, payload, want_status, want_code):
        _, api = app
        status, body = api.request(method, path, payload)
        assert status == want_status, body
        assert body["error"] == want_code

    def test_malformed_json_is_bad_request(self, app):
        _, api = app
        status, body = api.request("POST", "/v1/jobs", raw_body="{nope")
        assert status == 400 and body["error"] == "bad_request"

    @pytest.mark.parametrize(
        "webhook_url",
        ["http://127.0.0.1:abc/hook", "http:// spaced/hook", "http://[::1/hook"],
        ids=["port-not-a-number", "space-in-host", "unbalanced-bracket"],
    )
    def test_webhook_url_the_worker_cannot_use_is_400(self, app, webhook_url):
        # Each starts with http:// but makes the delivery itself raise.
        _, api = app
        status, body = api.request(
            "POST", "/v1/jobs", {"moduli": ["ff1"], "webhook_url": webhook_url}
        )
        assert status == 400 and body["error"] == "bad_webhook", body

    @pytest.mark.parametrize(
        "head",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /healthz HTTP/1.1 trailing\r\n\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 40_000 + b"\r\n\r\n",
        ],
        ids=[
            "request-line",
            "request-line-extra-token",
            "content-length-not-a-number",
            "content-length-negative",
            "head-over-32KiB",
        ],
    )
    def test_malformed_head_is_400_then_closed(self, app, head):
        _, api = app
        with socket.create_connection(("127.0.0.1", api.port), timeout=30) as sock:
            sock.sendall(head)
            raw = b""
            while chunk := sock.recv(65536):  # the server closes after answering
                raw += chunk
        status_line, _, rest = raw.partition(b"\r\n")
        headers, _, body = rest.partition(b"\r\n\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request", raw
        assert b"Connection: close" in headers.split(b"\r\n")
        payload = json.loads(body)
        assert payload["error"] == "bad_request" and payload["message"]
        status, _ = api.request("GET", "/healthz")
        assert status == 200  # one bad connection does not hurt the server

    def test_content_length_past_int_parsing_is_413(self, app):
        _, api = app
        head = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: " + b"9" * 5000
        with socket.create_connection(("127.0.0.1", api.port), timeout=30) as sock:
            sock.sendall(head + b"\r\n\r\n")
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 413 Payload Too Large\r\n"), raw
        assert json.loads(raw.partition(b"\r\n\r\n")[2])["error"] == (
            "payload_too_large"
        )

    @pytest.mark.parametrize(
        "request_bytes, status_line",
        [
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 200_000 + b"\r\n\r\n",
                b"HTTP/1.1 400 Bad Request",
            ),
            (
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n"
                + b"x" * 9_000_000,
                b"HTTP/1.1 413 Payload Too Large",
            ),
        ],
        ids=["head-200KB", "body-9MB"],
    )
    def test_error_answer_is_read_in_full_then_eof(self, app, request_bytes, status_line):
        # The server answers before it has read the whole request.  Its
        # close must not reset the connection: the peer finishes sending,
        # reads the whole answer, and then reads EOF.  A reset raises
        # ConnectionResetError or BrokenPipeError here.
        _, api = app
        with socket.create_connection(("127.0.0.1", api.port), timeout=30) as sock:
            sock.sendall(request_bytes)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == status_line, raw[:200]
        assert f"Content-Length: {len(body)}".encode() in lines
        assert b"Connection: close" in lines
        assert json.loads(body)["error"] in ("bad_request", "payload_too_large")

    def test_result_before_completion_is_409(self, app):
        service, api = app
        service.queue.pause_all()
        try:
            status, body = api.request(
                "POST", "/v1/jobs", {"moduli": [f"{n:x}" for n in _weak_corpus(seed=11, size=3)]}
            )
            assert status == 202
            status, error = api.request(
                "GET", f"/v1/jobs/{body['job_id']}/result"
            )
            assert status == 409 and error["error"] == "result_not_ready"
            api.request("POST", f"/v1/jobs/{body['job_id']}/cancel")
        finally:
            service.queue.resume_all()

    def test_oversized_body_is_413_and_connection_survives_logically(self, tmp_path):
        service = ServiceApp(
            ServiceConfig(state_dir=str(tmp_path), max_body_bytes=1024)
        )
        port = service.start_background()
        try:
            api = _Api(port)
            status, body = api.request(
                "POST", "/v1/jobs", {"moduli": ["ab" * 1500]}
            )
            assert status == 413 and body["error"] == "payload_too_large"
            status, _ = api.request("GET", "/healthz")
            assert status == 200  # server still serving
        finally:
            service.shutdown()


class TestLifecycleEndpoints:
    def test_pause_resume_cancel_roundtrip(self, app):
        service, api = app
        service.queue.pause_all()  # park the worker so jobs stay queued
        try:
            ids = []
            for seed in (21, 22):
                _, body = api.request(
                    "POST",
                    "/v1/jobs",
                    {"moduli": [f"{n:x}" for n in _weak_corpus(seed=seed, size=3)]},
                )
                ids.append(body["job_id"])

            status, paused = api.request("POST", f"/v1/jobs/{ids[0]}/pause")
            assert status == 200 and paused["status"] == "paused"
            status, resumed = api.request("POST", f"/v1/jobs/{ids[0]}/resume")
            assert status == 200 and resumed["status"] == "queued"
            status, cancelled = api.request("POST", f"/v1/jobs/{ids[1]}/cancel")
            assert status == 200 and cancelled["status"] == "cancelled"

            status, conflict = api.request("POST", f"/v1/jobs/{ids[1]}/pause")
            assert status == 409 and conflict["error"] == "conflict"

            status, listing = api.request("GET", "/v1/jobs")
            by_id = {row["job_id"]: row for row in listing["jobs"]}
            assert by_id[ids[1]]["status"] == "cancelled"
        finally:
            service.queue.resume_all()

    def test_queue_pause_resume_endpoints(self, app):
        _, api = app
        status, stats = api.request("POST", "/v1/queue/pause")
        assert status == 200 and stats["paused"] is True
        status, stats = api.request("POST", "/v1/queue/resume")
        assert status == 200 and stats["paused"] is False


class TestAuth:
    @pytest.fixture(scope="class")
    def auth_app(self, tmp_path_factory):
        state_dir = tmp_path_factory.mktemp("service-auth")
        service = ServiceApp(
            ServiceConfig(state_dir=str(state_dir), api_keys=("sekrit", "other"))
        )
        port = service.start_background()
        yield service, port
        service.shutdown()

    def test_v1_requires_key_healthz_does_not(self, auth_app):
        _, port = auth_app
        anonymous = _Api(port)
        status, body = anonymous.request("GET", "/v1/jobs")
        assert status == 401 and body["error"] == "unauthorized"
        status, _ = anonymous.request("GET", "/healthz")
        assert status == 200

        wrong = _Api(port, headers={"X-Api-Key": "guess"})
        status, _ = wrong.request("GET", "/v1/jobs")
        assert status == 401

        for key in ("sekrit", "other"):
            keyed = _Api(port, headers={"X-Api-Key": key})
            status, _ = keyed.request("GET", "/v1/jobs")
            assert status == 200


class TestWebhookDelivery:
    """Worker + notifier against the real queue, transport injected."""

    def _drain_one(self, tmp_path, *, transport, webhook_attempts=3, fail_job=False):
        queue = JobQueue(tmp_path, max_attempts=1)
        moduli = _weak_corpus(seed=31, size=3)

        def runner(job):
            if fail_job:
                raise RuntimeError("engine exploded")
            return (
                JobResult(divisors=(), factored=(), moduli_checked=len(job.moduli)),
                {"enabled": True},
            )

        notifier = WebhookNotifier(
            max_attempts=webhook_attempts,
            transport=transport,
            sleep=lambda seconds: None,
        )
        worker = ServiceWorker(queue, runner=runner, notifier=notifier, idle_wait=0.01)
        job, _ = queue.submit(moduli, "http://callback.test/done")
        worker.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            current = queue.get(job.job_id)
            if current.status.is_terminal and current.webhook_state in (
                "delivered",
                "gave_up",
            ):
                break
            time.sleep(0.01)
        worker.stop()
        return queue.get(job.job_id)

    def test_flaky_receiver_retries_until_delivered(self, tmp_path):
        calls = []

        def flaky(url, body):
            calls.append(json.loads(body))
            return 503 if len(calls) < 3 else 200

        job = self._drain_one(tmp_path, transport=flaky)
        assert job.webhook_state == "delivered"
        assert job.webhook_attempts == 3
        assert calls[-1]["event"] == "job.finished"
        assert calls[-1]["status"] == "succeeded"

    def test_dead_receiver_gives_up_result_still_pollable(self, tmp_path):
        def dead(url, body):
            raise OSError("connection refused")

        job = self._drain_one(tmp_path, transport=dead, webhook_attempts=2)
        assert job.webhook_state == "gave_up"
        assert job.webhook_attempts == 2
        assert job.status.value == "succeeded"
        assert job.result is not None  # giving up on delivery loses nothing

    def test_terminal_failure_also_notifies(self, tmp_path):
        payloads = []

        def capture(url, body):
            payloads.append(json.loads(body))
            return 200

        job = self._drain_one(tmp_path, transport=capture, fail_job=True)
        assert job.status.value == "failed"
        assert job.webhook_state == "delivered"
        assert payloads[0]["status"] == "failed"
        assert "engine exploded" in payloads[0]["error"]

    def test_undelivered_webhook_redelivered_after_restart(self, tmp_path):
        """Crash between completion and delivery: startup re-drives it."""
        queue = JobQueue(tmp_path)
        moduli = _weak_corpus(seed=33, size=3)
        job, _ = queue.submit(moduli, "http://callback.test/done")
        queue.claim()
        queue.complete(
            job.job_id,
            JobResult(divisors=(), factored=(), moduli_checked=len(moduli)),
        )
        # the process dies before the notifier ran

        delivered = threading.Event()
        reopened = JobQueue(tmp_path)
        notifier = WebhookNotifier(
            transport=lambda url, body: (delivered.set(), 200)[1],
            sleep=lambda seconds: None,
        )
        worker = ServiceWorker(
            reopened, runner=lambda job: None, notifier=notifier, idle_wait=0.01
        )
        worker.start()
        assert delivered.wait(10)
        worker.stop()
        assert reopened.get(job.job_id).webhook_state == "delivered"


def _answer_garbage(listener, connections):
    """Read each request in full, then answer a line that is not HTTP."""
    for _ in range(connections):
        connection, _ = listener.accept()
        with connection:
            raw = b""
            while b"\r\n\r\n" not in raw and (chunk := connection.recv(65536)):
                raw += chunk
            head, _, body = raw.partition(b"\r\n\r\n")
            length = next(
                int(line.split(b":")[1])
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
            while len(body) < length and (chunk := connection.recv(65536)):
                body += chunk
            connection.sendall(b"HELLO\r\n\r\n")


class TestWebhookReceiverCannotStopTheWorker:
    def test_worker_survives_a_receiver_that_answers_garbage(self, tmp_path):
        """The real transport raises ``BadStatusLine``: a failed attempt."""
        listener = socket.create_server(("127.0.0.1", 0))
        notifier = WebhookNotifier(timeout=5.0, sleep=lambda seconds: None)
        receiver = threading.Thread(
            target=_answer_garbage, args=(listener, notifier.max_attempts), daemon=True
        )
        receiver.start()
        queue = JobQueue(tmp_path)
        worker = ServiceWorker(
            queue,
            runner=lambda job: (
                JobResult(divisors=(), factored=(), moduli_checked=len(job.moduli)),
                {"enabled": True},
            ),
            notifier=notifier,
            idle_wait=0.01,
        )
        port = listener.getsockname()[1]
        hooked, _ = queue.submit(
            _weak_corpus(seed=35, size=3), f"http://127.0.0.1:{port}/hook"
        )
        worker.start()
        try:
            deadline = time.monotonic() + 20
            while queue.get(hooked.job_id).webhook_state == "pending":
                assert time.monotonic() < deadline, queue.get(hooked.job_id)
                time.sleep(0.01)
            later, _ = queue.submit(_weak_corpus(seed=36, size=3))
            while not queue.get(later.job_id).status.is_terminal:
                assert time.monotonic() < deadline, queue.get(later.job_id)
                time.sleep(0.01)
            assert worker.is_alive()
        finally:
            worker.stop()
            listener.close()
        receiver.join(timeout=10)
        assert not receiver.is_alive()  # it answered every attempt
        assert queue.get(hooked.job_id).webhook_state == "gave_up"
        assert queue.get(hooked.job_id).webhook_attempts == 3
        assert queue.get(later.job_id).status.value == "succeeded"


class TestHealthReportsADeadWorker:
    def test_healthz_is_503_once_the_worker_thread_dies(self, tmp_path, monkeypatch):
        # The runner turns the queue journal into a directory, so the
        # worker's JobQueue.complete raises outside the runner call and
        # ends the only worker thread; the job stays running.
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        journal = tmp_path / "journal.jsonl"

        def runner(job):
            journal.unlink()
            journal.mkdir()
            return JobResult(divisors=(), factored=(), moduli_checked=len(job.moduli)), {}

        service = ServiceApp(ServiceConfig(state_dir=str(tmp_path)), runner=runner)
        api = _Api(service.start_background())
        try:
            status, body = api.request("GET", "/healthz")
            assert status == 200 and body["ok"] is True
            status, _ = api.request("POST", "/v1/jobs", {"moduli": [f"{CORPUS[0]:x}"]})
            assert status == 202
            service.worker.join(timeout=30)
            assert not service.worker.is_alive()
            status, body = api.request("GET", "/healthz")
            assert status == 503
            assert body["ok"] is False and body["error"] == "worker_stopped"
            assert body["queue"]["by_status"]["running"] == 1
        finally:
            service.shutdown()
        assert [type(args.exc_value) for args in died] == [IsADirectoryError]


class TestEventLoopDiscipline:
    """Regression cover for the ASY001 fixes: journal-backed queue
    mutations must run via ``asyncio.to_thread``, never on the loop."""

    def test_submit_runs_off_the_event_loop(self, app):
        service, api = app
        original = service.queue.submit
        seen_threads = []

        def spy(moduli, webhook_url=None):
            seen_threads.append(threading.current_thread().name)
            return original(moduli, webhook_url)

        service.queue.submit = spy
        try:
            status, body = api.request(
                "POST", "/v1/jobs", {"moduli": [f"{CORPUS[0]:x}"]}
            )
        finally:
            service.queue.submit = original
        assert status == 202, body
        assert seen_threads, "handler never reached JobQueue.submit"
        assert all(name != "repro-service-loop" for name in seen_threads), (
            "journal write+flush executed on the event loop thread"
        )
        api.wait_status(body["job_id"], {"succeeded", "failed"})

    def test_pause_and_resume_run_off_the_event_loop(self, app):
        service, api = app
        seen_threads = []
        originals = {
            "pause_all": service.queue.pause_all,
            "resume_all": service.queue.resume_all,
        }

        def wrap(name):
            def spy(*args, **kwargs):
                seen_threads.append(threading.current_thread().name)
                return originals[name](*args, **kwargs)

            return spy

        service.queue.pause_all = wrap("pause_all")
        service.queue.resume_all = wrap("resume_all")
        try:
            status, _ = api.request("POST", "/v1/queue/pause")
            assert status == 200
            status, _ = api.request("POST", "/v1/queue/resume")
            assert status == 200
        finally:
            service.queue.pause_all = originals["pause_all"]
            service.queue.resume_all = originals["resume_all"]
        assert len(seen_threads) == 2
        assert all(name != "repro-service-loop" for name in seen_threads)


class TestShutdown:
    def test_stop_while_a_connection_lingers_logs_no_error(self, tmp_path, caplog):
        # The client reads its answer up to EOF and keeps its end open, so
        # the server's handler is still lingering when the stop cancels
        # it.  A handler that ends cancelled makes CPython <= 3.11's
        # stream callback log "Exception in callback ... CancelledError".
        service = ServiceApp(ServiceConfig(state_dir=str(tmp_path)))
        port = service.start_background()
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                service.shutdown()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n"), raw
        errors = [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []
