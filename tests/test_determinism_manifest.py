"""tests/determinism.txt, the command list that tests/determinism.sh runs.

Each line other than a ``#`` comment is an expected exit code and the
arguments of one vicontrol command.  No command repeats, and each loads
through the CLI's own parser and configuration checks, so a mistyped key
fails here; nothing is solved.
"""

from pathlib import Path

from vicontrol import cli

MANIFEST = Path(__file__).with_name("determinism.txt")


def test_each_manifest_command_is_listed_once_and_loads():
    lines = [ln for ln in MANIFEST.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    commands = []
    for line in lines:
        code, *argv = line.split()
        assert code in ("0", "2", "3", "4"), line
        cli.load_config(cli._build_parser().parse_args(argv))
        commands.append(tuple(argv))
    assert commands
    assert not {c for c in commands if commands.count(c) > 1}
