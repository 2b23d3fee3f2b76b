"""CLI behaviour tests for ``python -m repro.devtools.lint``."""

import json

import pytest

from repro.devtools.lint import main

CLEAN = "VALUE = 1\n"

#: The whole catalog: the per-file rules plus the whole-program ones.
RULE_CODES = (
    "DET001", "DET002", "DET003", "TEL001", "FLT001",
    "XTEL001", "XSVC001", "XTNT001",
    "ASY001", "ASY002", "ASY003", "ASY004",
    "DUR001", "DUR002", "DUR003", "DUR004", "DUR005",
)

VIOLATION = (
    "import random\n"
    "\n"
    "rng = random.Random()\n"
)

SUPPRESSED = (
    "import random\n"
    "\n"
    "rng = random.Random()  # reprolint: disable=DET001\n"
)


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    """A scratch tree the CLI lints, with cwd pinned inside it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src" / "repro").mkdir(parents=True)
    return tmp_path


def write(tree, relative, content):
    path = tree / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        write(tree, "src/repro/clean.py", CLEAN)
        assert main(["src"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tree, capsys):
        write(tree, "src/repro/bad.py", VIOLATION)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "src/repro/bad.py:3" in out

    def test_suppressed_violation_exits_zero(self, tree):
        write(tree, "src/repro/bad.py", SUPPRESSED)
        assert main(["src"]) == 0

    def test_unknown_format_exits_two(self, tree, capsys):
        write(tree, "src/repro/clean.py", CLEAN)
        with pytest.raises(SystemExit) as excinfo:
            main(["src", "--format", "sarif"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestOutputFormats:
    def test_json_format(self, tree, capsys):
        write(tree, "src/repro/bad.py", VIOLATION)
        assert main(["src", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings"}
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["path"] == "src/repro/bad.py"
        assert finding["line"] == 3
        assert finding["severity"] == "error"

    def test_list_rules(self, tree, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted(RULE_CODES)

    def test_default_paths_cover_all_four_trees(self, tree):
        write(tree, "src/repro/clean.py", CLEAN)
        write(tree, "tests/test_ok.py", CLEAN)
        write(tree, "benchmarks/bench_ok.py", CLEAN)
        write(tree, "examples/example_ok.py", CLEAN)
        assert main([]) == 0
        write(tree, "benchmarks/bench_bad.py", VIOLATION)
        assert main([]) == 1

    def test_no_project_skips_cross_module_rules(self, tree, capsys):
        write(
            tree,
            "src/repro/extra.py",
            "def record(telemetry):\n    telemetry.counter(\"Bad Name\")\n",
        )
        assert main(["src"]) == 1
        assert "XTEL001" in capsys.readouterr().out
        assert main(["src", "--no-project"]) == 0
