"""Planted-violation and clean fixtures for the cross-module X rules.

Each rule gets at least one scratch tree where the violation fires and a
matching clean tree where it does not, exercised through the real
``LintEngine`` so suppression and finding plumbing are covered too.
"""

import textwrap

import pytest

from repro.devtools.engine import LintEngine


def write(root, relative, content):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(content))
    return path


def lint(tmp_path, monkeypatch, *paths):
    monkeypatch.chdir(tmp_path)
    return LintEngine().lint_paths(list(paths) or ["src"])


def only(findings, rule):
    return [finding for finding in findings if finding.rule == rule]


TELEMETRY_DOC = """\
# Telemetry

<!-- metric-catalog:begin -->
| Name | Kind | Emitted by |
| --- | --- | --- |
| `stage.count` | counter | met.py |
| `scans.era.<source-name>.records` | counter | met.py |
<!-- metric-catalog:end -->
"""


class TestTelemetryContractDrift:
    def test_fires_both_directions(self, tmp_path, monkeypatch):
        write(tmp_path, "docs/TELEMETRY.md", TELEMETRY_DOC)
        write(
            tmp_path,
            "src/repro/met.py",
            """
            def record(telemetry, name):
                telemetry.counter("stage.count", 1)
                telemetry.counter("rogue.metric", 1)
            """,
        )
        findings = only(lint(tmp_path, monkeypatch), "XTEL001")
        assert len(findings) == 2
        undocumented = [f for f in findings if "rogue.metric" in f.message]
        assert len(undocumented) == 1
        assert undocumented[0].path == "src/repro/met.py"
        unemitted = [f for f in findings if "emitted nowhere" in f.message]
        assert len(unemitted) == 1
        assert unemitted[0].path.endswith("docs/TELEMETRY.md")
        assert "scans.era.<source-name>.records" in unemitted[0].message

    def test_clean_with_wildcard_fstring_match(self, tmp_path, monkeypatch):
        write(tmp_path, "docs/TELEMETRY.md", TELEMETRY_DOC)
        write(
            tmp_path,
            "src/repro/met.py",
            """
            def record(telemetry, name):
                telemetry.counter("stage.count", 1)
                telemetry.counter(f"scans.era.{name}.records", 1)
            """,
        )
        assert only(lint(tmp_path, monkeypatch), "XTEL001") == []

    def test_silent_without_contract_doc(self, tmp_path, monkeypatch):
        write(
            tmp_path,
            "src/repro/met.py",
            """
            def record(telemetry):
                telemetry.counter("rogue.metric", 1)
            """,
        )
        assert only(lint(tmp_path, monkeypatch), "XTEL001") == []

    def test_inline_disable_suppresses(self, tmp_path, monkeypatch):
        write(tmp_path, "docs/TELEMETRY.md", TELEMETRY_DOC)
        write(
            tmp_path,
            "src/repro/met.py",
            """
            def record(telemetry, name):
                telemetry.counter("stage.count", 1)
                telemetry.counter(f"scans.era.{name}.records", 1)
                telemetry.counter("rogue.metric", 1)  # reprolint: disable=XTEL001
            """,
        )
        assert only(lint(tmp_path, monkeypatch), "XTEL001") == []


def metric_findings(tmp_path, monkeypatch, name_expr):
    """XTEL001 findings for one emitted name, with no catalog doc present."""
    write(
        tmp_path,
        "src/repro/met.py",
        f"""
        def record(telemetry, name):
            telemetry.counter({name_expr}, 1)
        """,
    )
    return only(lint(tmp_path, monkeypatch), "XTEL001")


class TestMetricNames:
    """XTEL001's name check: dotted lower_snake, ``*`` as a whole segment."""

    @pytest.mark.parametrize(
        "name",
        ["Batch_GCD.products", "batch gcd", ".products", "batch_gcd..task", "camelCase.x"],
    )
    def test_bad_name_fires(self, tmp_path, monkeypatch, name):
        (finding,) = metric_findings(tmp_path, monkeypatch, repr(name))
        assert "not canonical" in finding.message
        assert finding.path == "src/repro/met.py"

    @pytest.mark.parametrize(
        "name_expr",
        [
            '"batch_gcd.products"',
            '"world_build"',
            '"scans.era_2012.records"',
            'f"fingerprint.rule.{name}"',
            'f"scans.era.{name}.records"',
        ],
        ids=[
            "batch_gcd.products",
            "world_build",
            "scans.era_2012.records",
            "fingerprint.rule.*",
            "scans.era.*.records",
        ],
    )
    def test_good_name_passes(self, tmp_path, monkeypatch, name_expr):
        assert metric_findings(tmp_path, monkeypatch, name_expr) == []

    def test_partial_wildcard_segment_fires(self, tmp_path, monkeypatch):
        (finding,) = metric_findings(
            tmp_path, monkeypatch, 'f"scans.era_{name}.records"'
        )
        assert "'scans.era_*.records'" in finding.message

    def test_dynamic_name_not_checked(self, tmp_path, monkeypatch):
        assert metric_findings(tmp_path, monkeypatch, "name") == []

    def test_non_canonical_name_is_reported_once(self, tmp_path, monkeypatch):
        """Against a catalog, a bad name is not also reported undocumented."""
        write(tmp_path, "docs/TELEMETRY.md", TELEMETRY_DOC)
        write(
            tmp_path,
            "src/repro/met.py",
            """
            def record(telemetry, name):
                telemetry.counter("stage.count", 1)
                telemetry.counter(f"scans.era.{name}.records", 1)
                telemetry.counter("Stage.Count", 1)
            """,
        )
        (finding,) = only(lint(tmp_path, monkeypatch), "XTEL001")
        assert "not canonical" in finding.message


SERVER_MODULE = """
_ROUTES = []

def route(method, pattern):
    def wrap(fn):
        _ROUTES.append((method, pattern, fn))
        return fn
    return wrap

class Server:
    @route("GET", "/healthz")
    async def health(self, request):
        return None

    @route("POST", "/v1/jobs")
    async def submit(self, request):
        self.telemetry.counter("service.http.requests", 1)
        return None
"""

SERVICE_DOC = """
# Service

<!-- endpoint-catalog:begin -->
| Method | Path | Purpose |
|---|---|---|
| `GET` | `/healthz` | liveness |
| `POST` | `/v1/jobs` | submit |
<!-- endpoint-catalog:end -->

Metrics: `service.http.requests` counts dispatched requests.
"""


class TestServiceContractDrift:
    def test_fires_both_directions_on_catalog_drift(self, tmp_path, monkeypatch):
        write(
            tmp_path,
            "docs/SERVICE.md",
            SERVICE_DOC.replace(
                "| `POST` | `/v1/jobs` | submit |",
                "| `POST` | `/v1/jobs/<job_id>/retry` | ghost row |",
            ),
        )
        write(tmp_path, "src/repro/server.py", SERVER_MODULE)
        findings = only(lint(tmp_path, monkeypatch), "XSVC001")
        assert len(findings) == 2
        undocumented = [f for f in findings if "POST /v1/jobs'" in f.message]
        assert len(undocumented) == 1
        assert undocumented[0].path == "src/repro/server.py"
        ghost = [f for f in findings if "registered nowhere" in f.message]
        assert len(ghost) == 1
        assert ghost[0].path.endswith("docs/SERVICE.md")
        assert "/v1/jobs/<job_id>/retry" in ghost[0].message

    def test_fires_when_doc_missing_entirely(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/server.py", SERVER_MODULE)
        findings = only(lint(tmp_path, monkeypatch), "XSVC001")
        assert len(findings) == 1
        assert "does not exist" in findings[0].message
        assert findings[0].path == "src/repro/server.py"

    def test_fires_when_doc_has_no_catalog_markers(self, tmp_path, monkeypatch):
        write(tmp_path, "docs/SERVICE.md", "# Service\n\nprose only\n")
        write(tmp_path, "src/repro/server.py", SERVER_MODULE)
        findings = only(lint(tmp_path, monkeypatch), "XSVC001")
        assert len(findings) == 1
        assert "no machine-readable endpoint catalog" in findings[0].message

    def test_fires_on_unmentioned_service_metric(self, tmp_path, monkeypatch):
        write(
            tmp_path,
            "docs/SERVICE.md",
            SERVICE_DOC.replace("`service.http.requests`", "nothing here"),
        )
        write(tmp_path, "src/repro/server.py", SERVER_MODULE)
        findings = only(lint(tmp_path, monkeypatch), "XSVC001")
        assert len(findings) == 1
        assert "service.http.requests" in findings[0].message
        assert "service metrics table" in findings[0].message

    def test_clean_when_catalog_matches(self, tmp_path, monkeypatch):
        write(tmp_path, "docs/SERVICE.md", SERVICE_DOC)
        write(tmp_path, "src/repro/server.py", SERVER_MODULE)
        assert only(lint(tmp_path, monkeypatch), "XSVC001") == []

    def test_silent_without_service_layer(self, tmp_path, monkeypatch):
        write(
            tmp_path,
            "src/repro/plain.py",
            """
            def run():
                return 1
            """,
        )
        assert only(lint(tmp_path, monkeypatch), "XSVC001") == []


class TestRealRepoSurface:
    def test_real_tree_has_no_new_cross_module_findings(self):
        findings = LintEngine().lint_paths(
            ["src", "tests", "benchmarks", "examples"]
        )
        cross = [f for f in findings if f.rule.startswith("X")]
        assert cross == []
