"""Meta-test: reprolint over this repository must be clean.

This is the same gate CI runs (``python -m repro.devtools.lint src tests
benchmarks examples``): zero findings — per-file rules and the
cross-module rules alike — that are not suppressed inline.  Every
suppression must name a registered rule, and one planted violation per
rule proves the gate still bites on each of them.
"""

import io
import json
import re
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import pytest

from repro.devtools.engine import LintEngine, registry

REPO_ROOT = Path(__file__).resolve().parent.parent

LINT_PATHS = ("src", "tests", "benchmarks", "examples")

_DISABLE = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9,\s]+)")


def registered_codes():
    LintEngine()  # loads every rule family onto the registry
    return {rule.code for rule in (*registry.rules(), *registry.project_rules())}


def run_lint(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )


class TestRepositoryIsClean:
    def test_whole_tree_has_no_new_findings(self):
        result = run_lint(*LINT_PATHS, "--format", "json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["findings"] == []

    def test_default_paths_match_the_ci_gate(self):
        """Bare ``python -m repro.devtools.lint`` lints the same four trees."""
        result = run_lint("--format", "json")
        assert result.returncode == 0, result.stdout + result.stderr
        explicit = run_lint(*LINT_PATHS, "--format", "json")
        assert json.loads(result.stdout) == json.loads(explicit.stdout)

    def test_suppressions_name_registered_rules(self):
        """A waiver for an unknown (e.g. retired) code is inert: flag it.

        Only COMMENT tokens count, so string fixtures in the suppression
        tests may still spell made-up codes.
        """
        known = registered_codes()
        unknown = []
        for tree in LINT_PATHS:
            for path in sorted((REPO_ROOT / tree).rglob("*.py")):
                readline = io.StringIO(path.read_text()).readline
                for token in tokenize.generate_tokens(readline):
                    if token.type != tokenize.COMMENT:
                        continue
                    match = _DISABLE.search(token.string)
                    if match is None:
                        continue
                    codes = {code.strip() for code in match.group(1).split(",")}
                    where = f"{path.relative_to(REPO_ROOT)}:{token.start[0]}"
                    unknown.extend(f"{where}: {code}" for code in sorted(codes - known - {""}))
        assert unknown == []


#: One planted violation per registered rule: code -> {path: source}.
PLANTS = {
    "DET001": {
        # A real module with one unseeded RNG appended.
        "src/repro/planted.py": (
            (REPO_ROOT / "src" / "repro" / "numt" / "primality.py").read_text()
            + "\n\n_PLANTED = random.Random()\n"
        ),
    },
    "DET002": {
        "src/repro/planted.py": (
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    },
    "DET003": {
        "src/repro/planted.py": (
            "import time\n"
            "\n"
            "\n"
            "def tick():\n"
            "    return time.perf_counter()\n"
        ),
    },
    "TEL001": {
        "src/repro/planted.py": (
            "def stage(telemetry):\n"
            '    telemetry.span("stage.work")\n'
        ),
    },
    "FLT001": {
        "src/repro/planted.py": (
            "def collect(future):\n"
            "    return future.result()\n"
        ),
    },
    "XTEL001": {
        "docs/TELEMETRY.md": (REPO_ROOT / "docs" / "TELEMETRY.md").read_text(),
        "src/repro/planted.py": (
            "def record(telemetry):\n"
            '    telemetry.counter("planted.undocumented")\n'
            '    telemetry.counter("Planted Name")\n'
        ),
    },
    "XSVC001": {
        "src/repro/planted.py": (
            "def route(method, pattern):\n"
            "    def deco(fn):\n"
            "        return fn\n"
            "    return deco\n"
            "\n"
            "\n"
            '@route("GET", "/v1/planted")\n'
            "async def _planted(request):\n"
            "    return None\n"
        ),
    },
    "ASY001": {
        "src/repro/planted.py": (
            "import time\n"
            "\n"
            "\n"
            "async def _handler():\n"
            "    return _work()\n"
            "\n"
            "\n"
            "def _work():\n"
            "    time.sleep(0.2)\n"
            "    return 1\n"
        ),
    },
    "ASY002": {
        "src/repro/planted.py": (
            "async def _job():\n"
            "    return 1\n"
            "\n"
            "\n"
            "def _kick():\n"
            "    _job()\n"
        ),
    },
    "ASY003": {
        "src/repro/planted.py": (
            "import asyncio\n"
            "\n"
            "\n"
            "async def _job():\n"
            "    return 1\n"
            "\n"
            "\n"
            "async def _go():\n"
            "    asyncio.create_task(_job())\n"
        ),
    },
    "ASY004": {
        "src/repro/planted.py": (
            "import asyncio\n"
            "\n"
            "\n"
            "class _Counter:\n"
            "    def __init__(self):\n"
            "        self._n = 0\n"
            "\n"
            "    async def bump(self):\n"
            "        n = self._n\n"
            "        await asyncio.sleep(0)\n"
            "        self._n = n + 1\n"
        ),
    },
    "XTNT001": {
        "src/repro/planted.py": (
            "def route(method, pattern):\n"
            "    def deco(fn):\n"
            "        return fn\n"
            "    return deco\n"
            "\n"
            "\n"
            '@route("GET", "/v1/jobs/<job_id>")\n'
            "async def _get_job(job_id):\n"
            "    return int(job_id, 16)\n"
        ),
    },
    "DUR001": {
        "src/repro/planted.py": (
            "import os\n"
            "\n"
            "\n"
            "def publish(directory, payload):\n"
            '    tmp = directory / "data.tmp"\n'
            "    tmp.write_text(payload)\n"
            '    os.replace(tmp, directory / "data.json")\n'
        ),
    },
    "DUR002": {
        "src/repro/planted.py": (
            "def commit(directory, payload):\n"
            '    (directory / "manifest.json").write_text(payload)\n'
        ),
    },
    "DUR003": {
        "src/repro/planted.py": (
            "from repro.faults.journal import MutationJournal\n"
            "\n"
            "\n"
            "class Store:\n"
            "    def __init__(self, directory):\n"
            '        self._journal = MutationJournal(directory / "journal.jsonl")\n'
            '        self._path = directory / "state.json"\n'
            "\n"
            "    def mutate(self, record, fast):\n"
            "        if fast:\n"
            '            self._journal.append({"r": record})\n'
            "        self._path.write_text(record)\n"
        ),
    },
    "DUR004": {
        # The source file *is* fsynced: only the directory entry is at risk.
        "src/repro/planted.py": (
            "import os\n"
            "\n"
            "\n"
            "def publish(directory, payload):\n"
            '    tmp = directory / "data.tmp"\n'
            '    with open(tmp, "w", encoding="utf-8") as handle:\n'
            "        handle.write(payload)\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n"
            '    os.replace(tmp, directory / "data.json")\n'
        ),
    },
    "DUR005": {
        "src/repro/planted.py": (
            "import json\n"
            "\n"
            "\n"
            "def load(path):\n"
            "    records = []\n"
            "    for line in path.read_text().splitlines():\n"
            "        records.append(json.loads(line))\n"
            "    return records\n"
        ),
    },
}


class TestGateStillBites:
    def test_every_rule_has_a_plant(self):
        assert set(PLANTS) == registered_codes()

    @pytest.mark.parametrize("code", sorted(PLANTS))
    def test_planted_violation_fails(self, tmp_path, code):
        for relative, source in PLANTS[code].items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        result = run_lint("src", "--format", "json", cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        findings = json.loads(result.stdout)["findings"]
        found = {finding["rule"] for finding in findings}
        assert code in found, result.stdout
        if code == "XTEL001":
            messages = " ".join(finding["message"] for finding in findings)
            assert "'planted.undocumented'" in messages
            assert "'Planted Name' is not canonical" in messages
        if code == "DUR004":
            # the stricter DUR001 must stay quiet on an fsynced source
            assert "DUR001" not in found


class TestLintRuntimeBudget:
    def test_full_run_stays_under_budget(self):
        """The gate (all rules, whole-program graph, coloring, dataflow)
        must stay cheap enough for the pre-commit loop."""
        started = time.monotonic()
        result = run_lint(*LINT_PATHS, "--format", "json")
        elapsed = time.monotonic() - started
        assert result.returncode == 0, result.stdout + result.stderr
        assert elapsed < 30.0, f"lint took {elapsed:.1f}s — budget is 30s"

    def test_no_single_rule_dominates(self):
        """--stats: every rule (and the graph build) stays under 10s, so
        one expensive rule cannot quietly eat the whole 30s budget."""
        result = run_lint(*LINT_PATHS, "--format", "json", "--stats")
        assert result.returncode == 0, result.stdout + result.stderr
        rule_seconds = json.loads(result.stdout)["stats"]["rule_seconds"]
        assert rule_seconds, "stats were requested but not reported"
        over = {
            code: seconds
            for code, seconds in rule_seconds.items()
            if seconds >= 10.0
        }
        assert not over, f"rules over the 10s per-rule budget: {over}"
