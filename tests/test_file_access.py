"""Only the command line front end reads or writes files: the numerics
modules take and return arrays, and ``cli`` turns them into artifacts."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multitrace"
FILE_CALLS = {"open", "savetxt", "loadtxt", "read_text", "write_text",
              "read_bytes", "write_bytes"}


def _file_calls(path):
    """``(line, name)`` of each call in ``path`` of a function or method
    named in ``FILE_CALLS``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in FILE_CALLS:
                yield node.lineno, name


def test_only_cli_touches_files():
    found = [f"{path.relative_to(PACKAGE)}:{line} calls {name}"
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "cli.py"
             for line, name in _file_calls(path)]
    assert not found, found


def test_cli_opens_files_in_three_places():
    # the artifact writer, the config read and the run report
    calls = list(_file_calls(PACKAGE / "cli.py"))
    assert [name for _, name in calls] == ["open"] * 3, calls
