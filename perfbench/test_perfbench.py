"""Tests of the benchmark itself: statistics, inputs, checks, tracing, runs.

Run from the checkout root::

    python3 -m pytest perfbench -q

The last tests run every workload at smoke size (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.telemetry import FakeClock, SystemClock  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics -----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    sample = [5, 1, 4, 2, 3]
    assert stats.percentile(sample, 0) == 1
    assert stats.percentile(sample, 50) == 3
    assert stats.percentile(sample, 80) == 4
    assert stats.percentile(sample, 100) == 5
    assert stats.median([4, 1, 3, 2]) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(sample, 101)


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_median():
    assert stats.tail(list(range(1, 101))) == 90
    assert stats.tail(list(range(1, 241))) == 230
    assert stats.tail(list(range(1, 21))) == 10
    assert stats.tail([7.0]) == 7.0


# -- inputs ---------------------------------------------------------------------


def test_traffic_schedule_is_a_function_of_the_seed():
    first = inputs.traffic_plan(5, rate=6.0, seconds=4.0)
    again = inputs.traffic_plan(5, rate=6.0, seconds=4.0)
    other = inputs.traffic_plan(6, rate=6.0, seconds=4.0)
    assert first == again
    assert first.offsets != other.offsets
    assert first.offsets == sorted(first.offsets)
    assert all(0 < t < 4.0 for t in first.offsets)
    assert len(first.burst) == inputs.BURST_JOBS
    moduli = [n for job in first.jobs + first.burst for n in job.moduli]
    assert len(moduli) == len(set(moduli))


def test_batch_corpus_is_seeded_and_plants_the_weak_structures():
    corpus = inputs.batch_corpus(3, size=300)
    assert corpus == inputs.batch_corpus(3, size=300)
    assert corpus.moduli != inputs.batch_corpus(4, size=300).moduli
    assert len(corpus.weak) == 58
    assert len(corpus.duplicates) == inputs.BATCH_DUPLICATES
    for n in corpus.duplicates:
        assert corpus.moduli.count(n) == 2


# -- output checks ----------------------------------------------------------------


def _truthful_lines(corpus: inputs.BatchCorpus) -> list[str]:
    lines = []
    for index in sorted(corpus.weak):
        n = corpus.moduli[index]
        if n in corpus.duplicates:
            lines.append(f"{n:x} - -")
        else:
            p, q = corpus.factors[n]
            lines.append(f"{n:x} {p:x} {q:x}")
    return lines


def test_batchgcd_check_rejects_planted_wrong_answers():
    corpus = inputs.batch_corpus(1, size=200)
    lines = _truthful_lines(corpus)
    assert checks.check_batchgcd(corpus, lines) == []
    assert checks.check_batchgcd(corpus, lines[1:])  # a weak modulus missed
    clean = next(i for i in range(len(corpus.moduli)) if i not in corpus.weak)
    n = corpus.moduli[clean]
    assert checks.check_batchgcd(corpus, lines + [f"{n:x} - -"])  # a clean one flagged
    split = next(line for line in lines if " - " not in line)
    n_hex, p_hex, _q_hex = split.split()
    wrong = [f"{n_hex} {p_hex} 3" if line == split else line for line in lines]
    assert checks.check_batchgcd(corpus, wrong)  # p*q != n
    unsplit = [f"{n_hex} - -" if line == split else line for line in lines]
    assert checks.check_batchgcd(corpus, unsplit)  # a splittable one left whole


def _service_answer(job: inputs.Job, flags: set[int]) -> tuple[dict, dict]:
    result = {
        "moduli_checked": len(job.moduli),
        "vulnerable_count": len(flags),
        "divisors": [[i, "1"] for i in sorted(flags)],
        "factored": [
            {"modulus": f"{job.moduli[i]:x}", "p": f"{job.factors[i][0]:x}",
             "q": f"{job.factors[i][1]:x}"}
            for i in sorted(flags)
        ],
    }
    webhook = {"status": "succeeded", "result": dict(result)}
    return {"job_id": "job-00000001-abc", **result}, webhook


def test_job_check_rejects_planted_wrong_answers():
    plan = inputs.traffic_plan(2, rate=6.0, seconds=2.0)
    job = plan.jobs[0]  # every PLANT_EVERY-th job shares a prime in moduli 0 and 1
    flags = checks.expected_flags(job, ())
    assert flags == {0, 1}
    result, webhook = _service_answer(job, flags)
    assert checks.check_job(job, flags, result, webhook) == []
    assert checks.check_job(job, flags, result, None)  # webhook never came
    wrong_flags, _ = _service_answer(job, {0})
    assert checks.check_job(job, flags, wrong_flags, {**webhook, "result": {
        k: v for k, v in wrong_flags.items() if k != "job_id"}})
    tampered = json.loads(json.dumps(result))
    tampered["factored"][0]["p"] = "3"
    assert checks.check_job(job, flags, tampered, webhook)  # wrong prime
    stale = {**webhook, "result": {**webhook["result"], "vulnerable_count": 0}}
    assert checks.check_job(job, flags, result, stale)  # webhook != GET result
    failed = {"status": "failed", "error": "boom"}
    assert checks.check_job(job, flags, result, failed)


def test_cross_job_shares_count_only_against_history():
    plan = inputs.traffic_plan(4, rate=6.0, seconds=10.0)
    crossing = plan.jobs[3]  # offset 3 of CROSS_EVERY shares with an earlier source
    history = list(plan.bootstrap.factors) + [f for job in plan.jobs[:3] for f in job.factors]
    assert 3 in checks.expected_flags(crossing, history)
    assert 3 not in checks.expected_flags(crossing, ())


def test_study_check_and_digest():
    assert checks.check_study("ab", "ab", 0) == []
    assert checks.check_study("ab", "cd", 0)
    assert checks.check_study("ab", "ab", 2)
    assert checks.check_study("ab", None, 0)
    one = checks.study_digest([1, 6], {"b": {3, 1}, "a": 1.5}, [], ())
    two = checks.study_digest([1, 6], {"a": 1.5, "b": {1, 3}}, [], ())
    assert one == two
    assert one != checks.study_digest([1, 7], {"a": 1.5, "b": {1, 3}}, [], ())


def test_study_refuses_digests_recorded_for_other_seeds(tmp_path, monkeypatch):
    recorded = json.loads(workloads.STUDY_DIGESTS.read_text())
    assert set(recorded) == {str(s) for s in range(inputs.STUDY_SEEDS)}
    short = tmp_path / "digests.json"
    short.write_text(json.dumps(dict(list(recorded.items())[:-1])))
    monkeypatch.setattr(workloads, "STUDY_DIGESTS", short)
    ctx = workloads.Context(root=ROOT, work=tmp_path, seed=1, seconds=0, trace=False,
                            clock=SystemClock())
    with pytest.raises(RuntimeError, match="exactly study seeds"):
        workloads.study(ctx)


# -- tracing ----------------------------------------------------------------------


def test_summarize_self_time_excludes_the_union_of_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 1, None],
        ["inner", 2.0, 4.0, 0, 1, None],
        ["inner", 3.0, 6.0, 0, 1, None],
        ["outer", 7.0, 8.0, 0, 1, None],  # nested in itself: busy counts it once
    ]
    result = summarize(spans)
    assert result["outer"].calls == 2
    assert result["outer"].busy == pytest.approx(10.0)
    assert result["outer"].self_time == pytest.approx(10.0 - 5.0 + 1.0)
    assert result["inner"].busy == pytest.approx(5.0)
    assert summarize(spans, since=2.5)["inner"].calls == 1


def test_install_wraps_every_binding_and_tracks_parents_per_thread(monkeypatch):
    home = types.ModuleType("pbfake.home")
    user = types.ModuleType("pbfake.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return home.leaf(x) * 2

    home.leaf, home.outer, user.leaf = leaf, outer, leaf
    for name, module in (("pbfake", types.ModuleType("pbfake")),
                         ("pbfake.home", home), ("pbfake.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    clock = FakeClock()
    tracer = Tracer(clock)
    assert tracer.install("pbfake.home:leaf", "leaf") == 2
    tracer.install("pbfake.home:outer", "outer")
    assert home.outer(1) == 4 and user.leaf(1) == 2
    thread = threading.Thread(target=user.leaf, args=(5,))
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("leaf", 0), ("leaf", -1), ("leaf", -1)]
    with pytest.raises(LookupError):
        tracer.install("pbfake.home:missing", "missing")


# -- whole runs -------------------------------------------------------------------


def test_every_workload_runs_checks_and_measures_each_of_its_rows(tmp_path):
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    rows = json.loads((HERE / "spec.json").read_text())["per_layer"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} - {"peak_rss_mb"}
    for name, run in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        outcome = run(workloads.Context(root=ROOT, work=work, seed=0, seconds=2,
                                        trace=True, clock=SystemClock()))
        assert outcome.failed == 0, (name, outcome.problems[:5])
        assert set(outcome.e2e) == end_to_end, name
        assert all(value > 0 for value in outcome.e2e.values()), (name, outcome.e2e)
        assert set(outcome.layers) <= per_layer, set(outcome.layers) - per_layer
        # A wrapper installed but bypassed, or a counter never emitted,
        # leaves its row missing or 0 on a workload that runs its layer.
        dead = [
            row["name"] for row in rows
            if name in row["on"] and not row.get("zero_expected")
            and not outcome.layers.get(row["name"])
        ]
        assert dead == [], (name, dead)
        zero = [row["name"] for row in rows if name in row["on"] and row.get("zero_expected")]
        assert all(outcome.layers[row] == 0 for row in zero), (name, zero)


def test_a_run_missing_a_listed_row_fails_without_a_result(monkeypatch, capsys):
    import run

    def partial(ctx):
        return workloads.Outcome(attempted=1, e2e={"setup_s": 1.0, "op_p50_ms": 1.0},
                                 layers={"select.processes": 2})

    monkeypatch.setitem(workloads.WORKLOADS, "batchgcd", partial)
    with pytest.raises(SystemExit, match="batchgcd: per-layer rows not measured: "
                                         "batchgcd.run.wall_s"):
        run.main(["--workload", "batchgcd", "--seed", "0", "--seconds", "0", "--trace", "1"])
    assert "metrics" not in capsys.readouterr().out


def test_command_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batchgcd", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "study", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_spec_describes_exactly_the_benchmark_metrics():
    spec = json.loads((HERE / "spec.json").read_text())
    assert [row["name"] for row in spec["per_layer"]] == [
        m["name"] for m in SPEC["per_layer"]
    ]
    assert set(spec["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(spec["workloads"]) == {w["name"] for w in SPEC["workloads"]}
