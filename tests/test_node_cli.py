"""Tests for the node CLIs as a family: parser shapes, misuse exits,
teardown on error, and the ``[project.scripts]`` entry points.

The parser-shape fixture pins every option of the run, explain, serve,
api and replica parsers.  Re-record it (only when an option change is
intended) with::

    PYTHONPATH=src python tests/test_node_cli.py
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import threading
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "cli_parsers.json")

#: parser name -> (module whose ``main`` builds it, argv reaching it)
PARSERS = {
    "run": ("repro.cli", []),
    "explain": ("repro.cli", ["explain"]),
    "serve": ("repro.runtime.serve", []),
    "api": ("repro.server.cli", []),
    "replica": ("repro.replication.cli", []),
}


class _Captured(Exception):
    pass


def _capture_parser(main, argv) -> argparse.ArgumentParser:
    """The parser ``main(argv)`` builds, taken at its ``parse_args`` call."""
    captured = []
    original = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        captured.append(self)
        raise _Captured

    argparse.ArgumentParser.parse_args = spy
    try:
        main(list(argv))
    except _Captured:
        pass
    finally:
        argparse.ArgumentParser.parse_args = original
    return captured[0]


def _action_shape(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": (
            list(action.choices) if action.choices is not None else None
        ),
        "nargs": action.nargs,
        "required": action.required,
        "const": action.const,
    }


def parser_shapes() -> dict:
    shapes = {}
    for name, (module, argv) in PARSERS.items():
        parser = _capture_parser(importlib.import_module(module).main, argv)
        shapes[name] = {
            "prog": parser.prog,
            "positionals": [
                a.dest for a in parser._actions if not a.option_strings
            ],
            "actions": sorted(
                (_action_shape(a) for a in parser._actions),
                key=lambda shape: shape["dest"],
            ),
        }
    return shapes


class TestParserShapes:
    @pytest.mark.parametrize("name", sorted(PARSERS))
    def test_parser_matches_recorded_shape(self, name):
        with open(FIXTURE, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
        assert parser_shapes()[name] == recorded[name]


def _exit_code(main, argv) -> int:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


class TestApiMisuse:
    @pytest.mark.parametrize("argv", [
        [],
        ["--source", "sim:50"],
        ["--demo", "--replication-port", "0"],
        ["--demo", "--follow", "--replication-port", "0"],
        ["--demo", "--chaos", "default"],
    ], ids=["no-input", "source-without-follow",
            "replication-without-follow", "replication-without-wal-dir",
            "chaos-without-follow"])
    def test_exits_2(self, argv, capsys):
        from repro.server.cli import main

        assert _exit_code(main, argv) == 2
        assert "error:" in capsys.readouterr().err


class TestReplicaMisuse:
    def test_missing_leader_exits_2(self, capsys):
        from repro.replication.cli import main

        assert _exit_code(main, []) == 2
        assert "--leader" in capsys.readouterr().err


class TestErrorExitLeavesNoInstruments:
    """An exit 2 after ``--lockwatch`` must leave the interpreter as it
    found it: lock constructors and ``time.sleep`` restored, no threads."""

    @pytest.mark.parametrize("module, argv", [
        ("repro.runtime.serve", ["--demo", "--lockwatch", "--chaos", "bogus"]),
        ("repro.server.cli",
         ["--demo", "--follow", "--lockwatch", "--chaos", "bogus"]),
    ], ids=["serve", "api-follow"])
    def test_bad_chaos_profile(self, module, argv, capsys):
        main = importlib.import_module(module).main
        originals = (threading.Lock, threading.RLock, time.sleep)
        threads_before = set(threading.enumerate())
        try:
            assert _exit_code(main, argv) == 2
            assert (threading.Lock, threading.RLock, time.sleep) == originals
            leftover = [
                t for t in threading.enumerate()
                if t not in threads_before and t.is_alive()
            ]
            assert leftover == []
        finally:
            threading.Lock, threading.RLock, time.sleep = originals
        assert "bogus" in capsys.readouterr().err


def _console_scripts() -> dict:
    """``[project.scripts]`` of pyproject.toml, read without tomllib."""
    scripts = {}
    in_section = False
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("["):
                in_section = line == "[project.scripts]"
            elif in_section and "=" in line:
                name, target = line.split("=", 1)
                scripts[name.strip()] = target.strip().strip('"')
    return scripts


class TestConsoleScripts:
    def test_every_script_is_listed(self):
        assert len(_console_scripts()) == 7

    @pytest.mark.parametrize("name", sorted(_console_scripts()))
    def test_help_exits_0(self, name, monkeypatch, capsys):
        module, attr = _console_scripts()[name].split(":")
        entry = getattr(importlib.import_module(module), attr)
        assert callable(entry)
        monkeypatch.setattr(sys, "argv", [name, "--help"])
        with pytest.raises(SystemExit) as excinfo:
            entry()
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as out:
        json.dump(parser_shapes(), out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"recorded {FIXTURE}")
