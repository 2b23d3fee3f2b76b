"""Output checks: every run verifies what the program returned.

Each check returns a list of problems (empty when the output is right),
so a fast wrong answer is counted as a failed operation, never as a
measurement.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Iterable, Mapping, Sequence

from inputs import BatchCorpus, Job

__all__ = [
    "check_batchgcd",
    "check_job",
    "check_study",
    "expected_flags",
    "study_digest",
]


def _canonical(value: Any) -> Any:
    """A JSON-safe form independent of hash order and object identity."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if isinstance(value, Mapping):
        items = [[_canonical(k), _canonical(v)] for k, v in value.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))
    if isinstance(value, (set, frozenset)):
        items = [_canonical(v) for v in value]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def study_digest(divisors: Sequence[int], table1: Any, table4: Any, table5: Any) -> str:
    """SHA-256 over the batch divisors and Tables 1, 4 and 5."""
    payload = {
        "divisors": [f"{d:x}" for d in divisors],
        "table1": _canonical(table1),
        "table4": _canonical(table4),
        "table5": _canonical(table5),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_study(digest: str, expected_digest: str | None, clean_not_truth: int) -> list[str]:
    """Study: factored-clean moduli lie in the ground truth; digest matches."""
    problems = []
    if clean_not_truth:
        problems.append(f"{clean_not_truth} factored-clean moduli are not weak by truth")
    if expected_digest is None:
        problems.append("no digest recorded for this study seed")
    elif digest != expected_digest:
        problems.append(f"study digest {digest[:12]} != recorded {expected_digest[:12]}")
    return problems


def check_batchgcd(corpus: BatchCorpus, lines: Iterable[str]) -> list[str]:
    """Batch GCD: flagged set equals the planted set; every split is exact.

    ``lines`` are ``format_results`` output: ``<n> <p> <q>`` in hex, or
    ``<n> - -`` for a flagged modulus that could not be split.
    """
    problems = []
    flagged: list[int] = []
    for line in lines:
        n_hex, p_hex, q_hex = line.split()
        n = int(n_hex, 16)
        flagged.append(n)
        if p_hex == "-":
            if n not in corpus.duplicates:
                problems.append(f"{n_hex[:16]}… flagged but not split")
            continue
        p, q = sorted((int(p_hex, 16), int(q_hex, 16)))
        if p * q != n:
            problems.append(f"{n_hex[:16]}…: p*q != modulus")
        elif (p, q) != corpus.factors.get(n):
            problems.append(f"{n_hex[:16]}…: split into the wrong primes")
    planted = sorted(corpus.moduli[i] for i in corpus.weak)
    if sorted(flagged) != planted:
        problems.append(
            f"flagged {len(flagged)} moduli, planted {len(planted)}; sets differ"
        )
    return problems


def expected_flags(job: Job, history: Iterable[tuple[int, int]]) -> set[int]:
    """Indices of ``job`` that share a prime with ``history`` or each other.

    ``history`` holds the prime pairs a job is checked against: nothing
    for independent clustered runs, everything ingested before it for
    the incremental store.
    """
    seen: dict[int, int] = {}
    for pair in history:
        for prime in set(pair):
            seen[prime] = seen.get(prime, 0) + 1
    for pair in job.factors:
        for prime in set(pair):
            seen[prime] = seen.get(prime, 0) + 1
    return {
        index
        for index, pair in enumerate(job.factors)
        if any(seen[prime] > 1 for prime in set(pair))
    }


def check_job(job: Job, flags: set[int], result: Mapping[str, Any],
              webhook: Mapping[str, Any] | None) -> list[str]:
    """One service job: flags, factors and the webhook body all agree.

    ``result`` is the ``GET /v1/jobs/<id>/result`` body and ``webhook``
    the callback body (``None`` when it never arrived).
    """
    problems = []
    if webhook is None:
        return ["webhook missing"]
    if webhook.get("status") != "succeeded":
        return [f"job {webhook.get('status')}: {webhook.get('error')}"]
    got = {int(index) for index, _divisor in result.get("divisors", [])}
    if got != flags:
        problems.append(f"flagged {sorted(got)}, expected {sorted(flags)}")
    expected_splits = {job.moduli[i]: job.factors[i] for i in flags}
    splits = {
        int(f["modulus"], 16): tuple(sorted((int(f["p"], 16), int(f["q"], 16))))
        for f in result.get("factored", [])
    }
    if splits != expected_splits:
        problems.append("recovered factors differ from the planted primes")
    body = {key: value for key, value in result.items() if key != "job_id"}
    if webhook.get("result") != body:
        problems.append("webhook result differs from GET result")
    return problems
