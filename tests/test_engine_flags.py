"""Every CLI's engine flags are generated from ``EngineConfig``'s fields.

For ``repro-study``, ``repro-batchgcd`` and ``python -m repro.service``:
the parser's engine flags are exactly the record's fields (for the
service, the fields it does not derive from ``--state-dir``, plus
``--engine-mode``), and setting every flag lands in the record the CLI
passes on.  A field added to :class:`EngineConfig` without a flag, a
flag that is parsed but dropped, or a flag naming no field fails here.
"""

from dataclasses import fields

import pytest

from repro import batchgcd_cli, cli
from repro.core.select import EngineConfig
from repro.service.__main__ import build_parser, config_from_args

FIELDS = [spec.name for spec in fields(EngineConfig)]

#: One non-default command-line value per field, and what it parses to.
SET_EVERYTHING = {
    "engine": ("alltoall", "alltoall"),
    "k": ("3", 3),
    "processes": ("2", 2),
    "backend": ("python", "python"),
    "chunk_timeout": ("1.5", 1.5),
    "checkpoint_dir": ("ckpt", "ckpt"),
    "fault_plan": ("slow:seconds=0.1", "slow:seconds=0.1"),
    "store_dir": ("store", "store"),
}

#: The service's own spelling of ``engine``; it derives the two paths
#: from ``--state-dir`` and exposes every other field under its own name.
SERVICE_ENGINE_FLAG = "--engine-mode"
SERVICE_EXPOSED = [
    name for name in FIELDS if name not in ("engine", "checkpoint_dir", "store_dir")
]

#: Flags that are not engine knobs, per CLI.
STUDY_OWN = {"--preset", "--seed", "--verbose", "--telemetry-json", "--timings"}
BATCHGCD_OWN = {"--output", "--dedup", "--telemetry-json", "--timings"}
SERVICE_OWN = {
    "--state-dir", "--host", "--port", "--api-key",
    "--max-attempts", "--webhook-retries",
}


def _flag(name, prefix=""):
    return f"--{prefix}{name.replace('_', '-')}"


def _long_flags(parser):
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def _argv(names, prefix=""):
    argv = []
    for name in names:
        argv += [_flag(name, prefix), SET_EVERYTHING[name][0]]
    return argv


class _Captured(Exception):
    """Stops a CLI at the point it hands its engine record on."""


def test_fixture_covers_every_field():
    assert list(SET_EVERYTHING) == FIELDS


class TestStudyCli:
    def test_engine_flags_are_the_fields(self):
        flags = _long_flags(cli.build_parser()) - STUDY_OWN
        assert flags == {_flag(name, "batchgcd-") for name in FIELDS}

    def test_every_flag_lands_in_the_study_config(self, monkeypatch):
        def capture(config, telemetry=None):
            raise _Captured(config)

        monkeypatch.setattr(cli, "run_study", capture)
        argv = ["--preset", "tiny", *_argv(FIELDS, "batchgcd-")]
        with pytest.raises(_Captured) as caught:
            cli.main(argv)
        expected = {name: parsed for name, (_, parsed) in SET_EVERYTHING.items()}
        assert caught.value.args[0].batchgcd == EngineConfig(**expected)

    def test_unset_flags_keep_the_preset(self, monkeypatch):
        def capture(config, telemetry=None):
            raise _Captured(config)

        monkeypatch.setattr(cli, "run_study", capture)
        with pytest.raises(_Captured) as caught:
            cli.main(["--preset", "tiny"])
        assert caught.value.args[0].batchgcd == EngineConfig(k=4)


class TestBatchGcdCli:
    def test_engine_flags_are_the_fields(self):
        flags = _long_flags(batchgcd_cli.build_parser()) - BATCHGCD_OWN
        assert flags == {_flag(name) for name in FIELDS}

    def test_every_flag_lands_in_the_selected_record(self, tmp_path, monkeypatch):
        def capture(corpus_size, config=None, **knobs):
            raise _Captured(config)

        monkeypatch.setattr(batchgcd_cli, "select_engine", capture)
        source = tmp_path / "moduli.txt"
        source.write_text("f\n15\n")
        with pytest.raises(_Captured) as caught:
            batchgcd_cli.main([str(source), *_argv(FIELDS)])
        expected = {name: parsed for name, (_, parsed) in SET_EVERYTHING.items()}
        assert caught.value.args[0] == EngineConfig(**expected)


class TestServiceCli:
    def test_engine_flags_are_the_documented_subset(self):
        flags = _long_flags(build_parser()) - SERVICE_OWN
        assert flags == {_flag(name) for name in SERVICE_EXPOSED} | {SERVICE_ENGINE_FLAG}

    def test_every_flag_lands_in_the_service_config(self, tmp_path):
        argv = [
            "--state-dir", str(tmp_path),
            SERVICE_ENGINE_FLAG, "incremental",
            *_argv(SERVICE_EXPOSED),
        ]
        config = config_from_args(build_parser().parse_args(argv))
        expected = {name: SET_EVERYTHING[name][1] for name in SERVICE_EXPOSED}
        assert config.engine == EngineConfig(engine="incremental", **expected)
