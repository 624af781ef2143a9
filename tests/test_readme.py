"""README's examples, run as written.

The `python` block runs in this process. The command-line round trip and the
sweep run under `sh` in a temporary directory, with `diarkit` a shell function
for `python -m diarkit` (see helpers.child_env for the package it imports), and
the `evaluate` and `sweep` output must match the blocks README prints after
them, byte for byte.
"""

import re
import subprocess
import sys
from pathlib import Path

from helpers import child_env

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list[tuple[str, str]]:
    """(language, body) of each fenced block of README, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def _output_after(command: str) -> tuple[str, str]:
    """The sh block that runs `command` and the plain block that follows it."""
    blocks = _blocks()
    i = next(i for i, (lang, body) in enumerate(blocks) if lang == "sh" and command in body)
    printed = next(body for lang, body in blocks[i + 1:] if lang == "")
    return blocks[i][1], printed


def _sh(script: str, cwd: Path) -> str:
    proc = subprocess.run(
        ["sh", "-c", f'set -e\ndiarkit() {{ "{sys.executable}" -m diarkit "$@"; }}\n{script}'],
        capture_output=True, cwd=cwd, env=child_env(), text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_library_example_runs():
    (code,) = [body for lang, body in _blocks() if lang == "python"]
    exec(compile(code, str(README), "exec"), {})


def test_command_line_output_is_as_printed(tmp_path):
    for command in ("diarkit evaluate", "diarkit sweep"):  # the sweep reads the round trip's files
        script, printed = _output_after(command)
        assert _sh(script, tmp_path) == printed
