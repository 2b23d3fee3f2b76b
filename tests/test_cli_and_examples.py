"""Smoke tests for the CLI and the runnable examples."""

import importlib
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).parent.parent


def run(args, timeout=300):
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCli:
    def test_tiny_preset_prints_all_tables(self):
        proc = run(["-m", "repro.cli", "--preset", "tiny", "--seed", "3"])
        assert proc.returncode == 0, proc.stderr
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
                       "Figure 1", "Figure 3", "Figure 7", "Figure 10"):
            assert marker in proc.stdout, marker

    def test_unknown_preset_rejected(self):
        proc = run(["-m", "repro.cli", "--preset", "huge"])
        assert proc.returncode != 0

    @pytest.mark.parametrize(
        "module, work, flags",
        [
            ("repro.batchgcd_cli", "select_engine", ["-o"]),
            ("repro.batchgcd_cli", "select_engine", ["--telemetry-json"]),
            ("repro.cli", "run_study", ["--preset", "tiny", "--telemetry-json"]),
        ],
        ids=["batchgcd-o", "batchgcd-telemetry-json", "study-telemetry-json"],
    )
    def test_missing_output_directory_fails_before_any_work(
        self, tmp_path, monkeypatch, capsys, module, work, flags
    ):
        cli = importlib.import_module(module)
        monkeypatch.setattr(
            cli, work, lambda *args, **kwargs: pytest.fail("work ran before the check")
        )
        moduli = tmp_path / "moduli.txt"
        moduli.write_text(f"{101 * 103:x}\n")
        inputs = [str(moduli)] if module == "repro.batchgcd_cli" else []
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*inputs, *flags, str(tmp_path / "missing" / "out.json")])
        assert exit_info.value.code == 2
        assert f"no such directory: {tmp_path / 'missing'}" in capsys.readouterr().err

    def test_telemetry_json_and_timings(self, tmp_path):
        import json

        from repro.pipeline import STAGE_SPANS
        from repro.telemetry import validate_report

        report_path = tmp_path / "telemetry.json"
        proc = run(
            ["-m", "repro.cli", "--preset", "tiny", "--seed", "3",
             "--telemetry-json", str(report_path), "--timings"]
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(report_path.read_text())
        assert validate_report(payload) == []
        assert [s["name"] for s in payload["spans"]] == list(STAGE_SPANS)
        assert payload["counters"]["scans.records"] > 0
        # --timings renders the per-stage summary to stdout.
        assert "batch_gcd" in proc.stdout
        assert "timeline_walk" in proc.stdout


class TestEntryPointReach:
    ENTRY_POINTS = (
        "repro.cli",
        "repro.batchgcd_cli",
        "repro.service.__main__",
        "repro.telemetry.__main__",
    )

    def test_entry_points_load_every_product_module(self):
        # Code no entry point imports is dead weight; repro.devtools is the
        # one exception, with its own CLI.
        src = REPO / "src"
        product = set()
        for path in (src / "repro").rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            if not name.startswith("repro.devtools"):
                product.add(name)
        imports = "; ".join(f"import {module}" for module in self.ENTRY_POINTS)
        proc = run(["-c", f"import sys; {imports}; print(*sorted(sys.modules))"])
        assert proc.returncode == 0, proc.stderr
        loaded = {name for name in proc.stdout.split() if name.split(".")[0] == "repro"}
        assert sorted(product - loaded) == []
        assert sorted(loaded - product) == []


class TestExamples:
    @pytest.mark.parametrize(
        "example",
        ["quickstart.py", "weak_key_attack.py"],
    )
    def test_example_runs_clean(self, example):
        proc = run([str(REPO / "examples" / example)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

    def test_quickstart_telemetry_report_validates(self, tmp_path):
        import json

        from repro.telemetry import validate_report

        report_path = tmp_path / "quickstart_report.json"
        proc = run(
            [str(REPO / "examples" / "quickstart.py"),
             "--telemetry-json", str(report_path)]
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(report_path.read_text())
        assert validate_report(payload) == []
        names = [s["name"] for s in payload["spans"]]
        assert "quickstart.batch_gcd" in names

    def test_cluster_demo_small(self):
        proc = run(
            [
                str(REPO / "examples" / "cluster_batchgcd_demo.py"),
                "--moduli", "300", "--processes", "2",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        assert "classic batch GCD" in proc.stdout

    def test_vendor_response_study_tiny(self):
        proc = run(
            [str(REPO / "examples" / "vendor_response_study.py"),
             "--preset", "tiny", "--seed", "5"],
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "headline findings" in proc.stdout
