"""The shipped demos run cleanly: every `equibundle` line of
demos/cli_session.sh through `python -m equibundle`, and both Python
demo scripts, each in a fresh interpreter from the repository root."""

import shlex
import subprocess
import sys
import pytest

from oracles import ROOT, src_env

DEMOS = ROOT / "demos"


def _session_commands() -> list[list[str]]:
    commands = []
    for line in (DEMOS / "cli_session.sh").read_text().splitlines():
        if line.startswith("equibundle "):
            commands.append(shlex.split(line.replace("$D", "demos/documents"))[1:])
    return commands


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=120
    )


def test_session_covers_every_subcommand():
    used = {argv[0] for argv in _session_commands()}
    assert used == {"check", "gsign", "dimension", "solve", "expand", "sum", "search"}


@pytest.mark.parametrize("argv", _session_commands(), ids=" ".join)
def test_cli_session_line(argv):
    proc = _run(["-m", "equibundle", *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", ["congruence_tour.py", "dimension_walkthrough.py"])
def test_python_demo(script):
    proc = _run([str(DEMOS / script)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
