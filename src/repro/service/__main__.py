"""``python -m repro.service`` — run the key-checking service.

Examples::

    # local development, open (no auth), ephemeral port published in
    # <state-dir>/endpoint.json
    python -m repro.service --state-dir /tmp/repro-svc --port 0

    # production-ish: fixed port, API keys, pooled engine
    REPRO_SERVICE_API_KEYS=s3cret python -m repro.service \\
        --state-dir /var/lib/repro --port 8080 --processes 2 --k 16

Engine flags mirror ``repro.batchgcd_cli`` (same vocabulary, same
defaults via :meth:`repro.studyconfig.StudyConfig.service`).  See
``docs/SERVICE.md`` for the API reference and operational notes.
"""

from __future__ import annotations

import argparse
import sys

from repro.service.app import ServiceApp
from repro.service.auth import keys_from_env
from repro.service.models import ServiceConfig
from repro.studyconfig import StudyConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Async weak-key checking service with a persistent job queue.",
    )
    parser.add_argument(
        "--state-dir", required=True,
        help="journal, checkpoints, and endpoint file live here",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind host")
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 = ephemeral; bound port lands in endpoint.json)",
    )
    parser.add_argument(
        "--api-key", action="append", default=[],
        help="accepted X-Api-Key value (repeatable; also "
        "$REPRO_SERVICE_API_KEYS, comma-separated)",
    )
    parser.add_argument(
        "--engine-mode", choices=("clustered", "incremental"), default=None,
        help="job execution mode: independent per-job clustered runs "
        "(default) or one persistent incremental product-tree store "
        "checking every modulus against all previously ingested ones",
    )
    parser.add_argument(
        "--incremental-max-batch", type=int, default=None,
        help="incremental mode: largest job served by per-modulus store "
        "inserts; bigger jobs re-bootstrap via a clustered run",
    )
    parser.add_argument(
        "--k", type=int, default=None, help="clustered-engine subset count"
    )
    parser.add_argument(
        "--processes", type=int, default=None,
        help="engine worker processes per job (default in-process)",
    )
    parser.add_argument(
        "--backend", default=None, help="big-int backend (python/gmpy2)"
    )
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="engine chunk re-submissions per run",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None,
        help="engine per-chunk timeout, seconds",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None,
        help="job run attempts before terminal failure",
    )
    parser.add_argument(
        "--webhook-retries", type=int, default=None,
        help="webhook delivery attempts per job",
    )
    parser.add_argument(
        "--fault-plan", default=None,
        help="deterministic fault-injection spec (chaos drills)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    study = StudyConfig.service()
    overrides = {
        "host": args.host,
        "port": args.port,
        "api_keys": tuple(args.api_key) + keys_from_env(),
    }
    if args.engine_mode is not None:
        overrides["engine_mode"] = args.engine_mode
    if args.incremental_max_batch is not None:
        overrides["incremental_max_batch"] = args.incremental_max_batch
    if args.k is not None:
        overrides["engine_k"] = args.k
    if args.processes is not None:
        overrides["engine_processes"] = args.processes
    if args.backend is not None:
        overrides["engine_backend"] = args.backend
    if args.max_retries is not None:
        overrides["engine_max_retries"] = args.max_retries
    if args.chunk_timeout is not None:
        overrides["engine_chunk_timeout"] = args.chunk_timeout
    if args.max_attempts is not None:
        overrides["max_attempts"] = args.max_attempts
    if args.webhook_retries is not None:
        overrides["webhook_max_attempts"] = args.webhook_retries
    if args.fault_plan is not None:
        overrides["fault_plan"] = args.fault_plan
    return ServiceConfig.from_study(
        study, state_dir=args.state_dir, **overrides
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    app = ServiceApp(config)
    print(
        f"repro.service: state_dir={config.state_dir} "
        f"engine(mode={config.engine_mode}, k={config.engine_k}, "
        f"processes={config.engine_processes})",
        file=sys.stderr,
    )
    app.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
