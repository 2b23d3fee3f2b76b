"""End-to-end pipeline benchmark at test scale, plus phase accounting.

Times one complete study — world simulation, 51 monthly scans, protocol
corpora, clustered batch GCD, fingerprinting, analysis — and records the
shared benchmark study's stage-span walls as an artifact.
"""

import pytest

from repro.pipeline import run_study
from repro.studyconfig import StudyConfig

from conftest import write_artifact

pytestmark = pytest.mark.benchmark(warmup=False)


def test_full_study_tiny(benchmark, study, artifact_dir):
    result = benchmark.pedantic(
        run_study, args=(StudyConfig.tiny(seed=99),), rounds=1, iterations=1
    )
    assert result.table1.vulnerable_moduli_raw > 0
    assert len(result.snapshots) == 51

    # Record the shared benchmark study's per-stage accounting too.
    lines = [
        f"{span.name:18s} {span.wall_seconds:8.2f}s" for span in study.telemetry.spans
    ]
    if study.cluster_stats:
        lines.append(
            f"{'batchgcd cpu':18s} {study.cluster_stats.cpu_seconds:8.2f}s "
            f"(k={study.cluster_stats.k}, {study.cluster_stats.tasks} tasks)"
        )
    write_artifact(artifact_dir, "phase_timings", "\n".join(lines))
    assert study.telemetry.find_span("batch_gcd").wall_seconds > 0
