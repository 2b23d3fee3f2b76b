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

    #: The study's layers: only ``repro.cli`` and ``from repro import
    #: run_study`` load them.
    STUDY_LAYERS = (
        "repro.pipeline", "repro.studyconfig", "repro.timeline", "repro.analysis",
        "repro.devices", "repro.entropy", "repro.crypto", "repro.scans",
        "repro.fingerprint", "repro.reporting",
    )

    @staticmethod
    def _loaded_after(statement):
        code = f"import sys; {statement}; print(*sorted(sys.modules))"
        proc = run(["-c", code])
        assert proc.returncode == 0, proc.stderr
        return [name for name in proc.stdout.split() if name.split(".")[0] == "repro"]

    @pytest.mark.parametrize(
        "module",
        ["repro.batchgcd_cli", "repro.service.__main__", "repro.telemetry.__main__",
         "repro.devtools.lint"],
    )
    def test_entry_point_loads_only_its_layers(self, module):
        loaded = self._loaded_after(f"import {module}")
        study = [
            name for name in loaded
            if any(name == layer or name.startswith(layer + ".") for layer in self.STUDY_LAYERS)
        ]
        assert study == []

    def test_package_root_loads_no_submodule(self):
        assert self._loaded_after("import repro") == ["repro"]

    def test_root_names_resolve_to_their_defining_modules(self):
        import ast

        import repro

        public = set(repro.__all__) - {"__version__"}
        assert set(repro._EXPORTS) == public
        tree = ast.parse((REPO / "src" / "repro" / "__init__.py").read_text())
        guarded = {
            alias.name: node.module
            for block in tree.body
            if isinstance(block, ast.If) and getattr(block.test, "id", None) == "TYPE_CHECKING"
            for node in block.body
            for alias in node.names
        }
        assert guarded == repro._EXPORTS
        for name, module in repro._EXPORTS.items():
            assert getattr(repro, name) is getattr(importlib.import_module(module), name)
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_root_name_raises_and_submodules_still_import(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018
        loaded = self._loaded_after("from repro import batchgcd_cli")
        assert "repro.batchgcd_cli" in loaded
        assert "repro.pipeline" not in loaded


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
