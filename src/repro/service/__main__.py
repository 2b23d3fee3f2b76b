"""``python -m repro.service`` — run the key-checking service.

Examples::

    # local development, open (no auth), ephemeral port published in
    # <state-dir>/endpoint.json
    python -m repro.service --state-dir /tmp/repro-svc --port 0

    # production-ish: fixed port, API keys, pooled engine
    REPRO_SERVICE_API_KEYS=s3cret python -m repro.service \\
        --state-dir /var/lib/repro --port 8080 --processes 2 --k 16

Engine flags are generated from the same table as ``repro-batchgcd``'s
(:data:`repro.core.select.ENGINE_FLAGS`): ``--k``, ``--processes``,
``--backend``, ``--chunk-timeout`` and ``--fault-plan``, plus
``--engine-mode`` for the engine itself.  The service derives
``checkpoint_dir`` and ``store_dir`` from ``--state-dir``.  Defaults are
:class:`~repro.service.models.ServiceConfig`'s.  See ``docs/SERVICE.md``
for the API reference and operational notes.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.select import add_engine_flags, engine_config_from_args
from repro.service.app import ServiceApp
from repro.service.auth import keys_from_env
from repro.service.models import (
    DEFAULT_ENGINE,
    DERIVED_ENGINE_KNOBS,
    ENGINE_MODES,
    ServiceConfig,
)


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
        "--engine-mode", dest="engine", choices=ENGINE_MODES, default=None,
        help="job execution mode: independent per-job clustered runs "
        "(default) or one persistent incremental product-tree store "
        "checking every modulus against all previously ingested ones",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None,
        help="job run attempts before terminal failure",
    )
    parser.add_argument(
        "--webhook-retries", type=int, default=None,
        help="webhook delivery attempts per job",
    )
    add_engine_flags(parser, exclude=("engine", *DERIVED_ENGINE_KNOBS))
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    overrides = {}
    if args.max_attempts is not None:
        overrides["max_attempts"] = args.max_attempts
    if args.webhook_retries is not None:
        overrides["webhook_max_attempts"] = args.webhook_retries
    return ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        api_keys=tuple(args.api_key) + keys_from_env(),
        engine=engine_config_from_args(args, DEFAULT_ENGINE),
        **overrides,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    app = ServiceApp(config)
    print(
        f"repro.service: state_dir={config.state_dir} "
        f"engine(mode={config.engine.engine}, k={config.engine.k}, "
        f"processes={config.engine.processes})",
        file=sys.stderr,
    )
    app.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
