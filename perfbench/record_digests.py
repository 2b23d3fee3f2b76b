"""Record the digest the study workload checks for each study seed.

Usage (from the checkout root)::

    python3 perfbench/record_digests.py

Runs ``run_study(StudyConfig.tiny(s))`` for every ``s`` below
``inputs.STUDY_SEEDS`` and writes ``perfbench/study_digests.json``.
Re-record only when the study's output is meant to change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import STUDY_SEEDS  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench-work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out.json"
    digests = {}
    for study_seed in range(STUDY_SEEDS):
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), "study", str(study_seed), str(out)],
            cwd=HERE.parent, check=True,
        )
        digests[str(study_seed)] = json.loads(out.read_text())["digest"]
        print(study_seed, digests[str(study_seed)], flush=True)
    (HERE / "study_digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
