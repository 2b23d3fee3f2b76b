"""The engine seam: adaptive selection, facades, and CLI/config exposure."""

import json
import random
from pathlib import Path

import pytest

from repro.core.batchgcd import ClassicBatchGcd, batch_gcd
from repro.core.select import (
    AUTO_POOL_MAX_WORKERS,
    AUTO_POOL_MIN_MODULI,
    ENGINE_NAMES,
    EngineConfig,
    auto_processes,
    select_engine,
)
from repro.crypto.primes import generate_prime
from repro.studyconfig import StudyConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


def _corpus(seed, n=20):
    rng = random.Random(seed)
    pool = [generate_prime(32, rng) for _ in range(10)]
    out = []
    for _ in range(n):
        a, b = rng.sample(range(10), 2)
        out.append(pool[a] * pool[b])
    return out


class TestAutoProcesses:
    def test_explicit_request_always_wins(self):
        assert auto_processes(10**6, requested=2, cores=64)[0] == 2

    def test_single_core_stays_in_process(self):
        assert auto_processes(10**6, cores=1)[0] is None

    def test_small_corpus_stays_in_process(self):
        # BENCH_batchgcd.json auto_pool: pool startup dominates small
        # corpora (0.068 s pooled vs 0.037 s in-process at n=600).
        assert auto_processes(616, cores=8)[0] is None
        assert auto_processes(AUTO_POOL_MIN_MODULI - 1, cores=8)[0] is None

    def test_large_corpus_pools_with_derived_workers(self):
        workers, reason = auto_processes(AUTO_POOL_MIN_MODULI, cores=4)
        assert workers == 3
        assert "pooled" in reason

    def test_worker_ceiling(self):
        workers, _ = auto_processes(10**6, cores=64)
        assert workers == AUTO_POOL_MAX_WORKERS

    def test_threshold_is_the_committed_evidence(self):
        # benchmarks/test_batchgcd_task_graph.py writes the auto_pool leg;
        # the constant follows its smallest_pooled_win, never drifts from it.
        bench = json.loads((REPO_ROOT / "BENCH_batchgcd.json").read_text())
        assert AUTO_POOL_MIN_MODULI == bench["auto_pool"]["smallest_pooled_win"]


class TestSelectEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            select_engine(10, engine="bogus")

    def test_keywords_override_the_record(self):
        base = EngineConfig(engine="alltoall", k=5, chunk_timeout=2.0)
        choice = select_engine(100, base, k=3)
        assert choice.name == "alltoall"
        assert choice.engine.k == 3
        assert choice.engine.recovery.chunk_timeout == 2.0

    def test_keyword_outside_the_record_rejected(self):
        with pytest.raises(TypeError):
            select_engine(100, max_retries=2)

    def test_auto_small_corpus_is_in_process_clustered(self):
        # auto runs the clustered driver with its descent foreign pass,
        # reported as alltoall.
        choice = select_engine(100, engine="auto", cores=8)
        assert choice.name == "alltoall"
        assert choice.engine.foreign_pass == "descent"
        assert choice.processes is None
        assert choice.engine.processes is None

    def test_auto_large_corpus_pools(self):
        choice = select_engine(10_000, engine="auto", cores=4)
        assert choice.name == "alltoall"
        assert choice.engine.foreign_pass == "descent"
        assert choice.processes == 3
        assert choice.engine.processes == 3

    def test_auto_with_store_dir_prefers_incremental(self, tmp_path):
        choice = select_engine(
            100, engine="auto", store_dir=tmp_path / "store"
        )
        assert choice.name == "incremental"
        assert choice.engine.store_dir == tmp_path / "store"
        # Its bulk ingest runs the paired descent pass.
        assert choice.engine.bulk.foreign_pass == "descent"

    def test_explicit_clustered_keeps_requested_processes(self):
        choice = select_engine(10_000, engine="clustered", cores=8)
        assert choice.processes is None  # no auto-derivation when explicit

    def test_explicit_clustered_keeps_the_remainder_pass(self):
        # --engine clustered is the paper's Figure 2 algorithm: k**2
        # remainder-tree tasks, whatever auto picks.
        choice = select_engine(10_000, engine="clustered", k=3)
        assert choice.name == "clustered"
        assert choice.engine.foreign_pass == "remainder"
        choice.engine.run(_corpus(6))
        assert choice.engine.last_stats.tasks == 9

    def test_explicit_alltoall_defaults_shards(self):
        # The all-to-all engine is the clustered driver's descent pass,
        # one logical node per subset: its shard count is k.
        choice = select_engine(100, engine="alltoall")
        assert choice.name == "alltoall"
        assert choice.engine.foreign_pass == "descent"
        assert choice.engine.k == 16
        assert select_engine(100, engine="alltoall", k=3).engine.k == 3

    def test_every_name_resolves(self, tmp_path):
        # store_dir only makes sense for the incremental resolution; the
        # other explicit engines reject it rather than ignoring it.
        for name in ENGINE_NAMES:
            store = tmp_path / name if name in ("auto", "incremental") else None
            choice = select_engine(10, engine=name, store_dir=store)
            assert choice.name in ENGINE_NAMES and choice.name != "auto"
            assert hasattr(choice.engine, "run")

    def test_selected_engines_agree(self, tmp_path):
        moduli = _corpus(1)
        reference = batch_gcd(moduli)
        for name in ENGINE_NAMES:
            store = tmp_path / name if name in ("auto", "incremental") else None
            choice = select_engine(
                len(moduli), engine=name, k=3, store_dir=store
            )
            result = choice.engine.run(moduli)
            assert [d > 1 for d in result.divisors] == [
                d > 1 for d in reference.divisors
            ], name
            assert choice.engine.last_stats is not None


class TestNoSilentFallback:
    """An unsatisfiable explicit request must raise, never be reinterpreted.

    The coverage gap this closes: nothing previously pinned down what
    happens when an explicit engine request carries a knob the resolved
    engine cannot honour — selection could have silently dropped the
    knob and run a different configuration than the one asked for.
    """

    @pytest.mark.parametrize("engine", ["classic", "clustered", "alltoall"])
    def test_store_dir_with_storeless_engine_raises(self, engine, tmp_path):
        with pytest.raises(ValueError, match=f"the {engine} engine has no persistent store"):
            select_engine(100, engine=engine, store_dir=tmp_path / "store")

    def test_alltoall_with_store_dir_raises_with_reason(self, tmp_path):
        # The message names the dropped knob and the engine that takes it.
        with pytest.raises(ValueError, match="no persistent store") as excinfo:
            select_engine(
                100, engine="alltoall", store_dir=tmp_path / "store"
            )
        assert str(tmp_path / "store") in str(excinfo.value)
        assert "engine='incremental'" in str(excinfo.value)

    def test_invalid_shard_count_raises(self):
        # The all-to-all engine's shard count is k.
        with pytest.raises(ValueError, match="k must be"):
            select_engine(100, engine="alltoall", k=0)

    def test_auto_without_conflicts_still_resolves(self, tmp_path):
        # The guard must not over-trigger: a store routes auto to the
        # incremental engine, and so does an explicit incremental request.
        assert select_engine(100, engine="auto").name == "alltoall"
        assert (
            select_engine(
                100, engine="auto", store_dir=tmp_path / "s"
            ).name
            == "incremental"
        )
        assert (
            select_engine(
                100, engine="incremental", store_dir=tmp_path / "s"
            ).name
            == "incremental"
        )


class TestClassicFacade:
    def test_runs_and_records_stats(self):
        moduli = _corpus(2)
        engine = ClassicBatchGcd()
        result = engine.run(moduli)
        assert result.divisors == batch_gcd(moduli).divisors
        assert engine.last_stats.engine == "classic"
        assert engine.last_stats.tasks == 1


class TestConfigAndCliExposure:
    def test_studyconfig_defaults(self):
        config = StudyConfig()
        assert config.batchgcd == EngineConfig()
        assert config.batchgcd.engine == "auto"
        assert config.batchgcd.store_dir is None

    def test_cli_exposes_engine_flags(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        helptext = capsys.readouterr().out
        assert "--batchgcd-engine" in helptext
        assert "--batchgcd-store-dir" in helptext
        with pytest.raises(SystemExit) as excinfo:
            main(["--batchgcd-engine", "bogus"])
        assert excinfo.value.code == 2

    def test_batchgcd_cli_rejects_store_dir_without_incremental(
        self, tmp_path, capsys
    ):
        from repro.batchgcd_cli import main

        source = tmp_path / "moduli.txt"
        source.write_text("\n".join(f"{m:x}" for m in _corpus(5, n=4)) + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    str(source),
                    "--engine", "clustered",
                    "--store-dir", str(tmp_path / "store"),
                ]
            )
        assert excinfo.value.code == 2
        assert "no persistent store" in capsys.readouterr().err

    def test_batchgcd_cli_runs_incremental_engine(self, tmp_path, capsys):
        from repro.batchgcd_cli import main

        moduli = _corpus(3, n=12)
        source = tmp_path / "moduli.txt"
        source.write_text("\n".join(f"{m:x}" for m in moduli) + "\n")
        out = tmp_path / "factors.txt"
        code = main(
            [
                str(source),
                "-o", str(out),
                "--engine", "incremental",
                "--store-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        # Same input again: the store now serves the whole corpus and the
        # output must be byte-identical.
        again = tmp_path / "factors2.txt"
        code = main(
            [
                str(source),
                "-o", str(again),
                "--engine", "incremental",
                "--store-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        assert out.read_text() == again.read_text()

    def test_batchgcd_cli_auto_engine(self, tmp_path):
        from repro.batchgcd_cli import main

        moduli = _corpus(4, n=8)
        source = tmp_path / "moduli.txt"
        source.write_text("\n".join(f"{m:x}" for m in moduli) + "\n")
        assert main([str(source), "-o", str(tmp_path / "f.txt"), "--engine", "auto"]) == 0
