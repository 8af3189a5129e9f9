"""Every function under ``src/`` runs from the command line.

A fresh process drives ``cli.main`` through every mode and sweep kind at
tiny sizes, plus a config file, a complex sigma, the n = 160 square (its
pairs span more than one assembly chunk, so the thread pool runs), one
exit-2 run, one exit-3 run and ``--help``, with ``sys.setprofile`` and
``threading.setprofile`` recording each Python function entered.  A
``def`` that none of this enters is code the product does not run; it
belongs in ``tests/`` unless ``KEPT`` names it with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multitrace"

# defs under src/ that no CLI run reaches, each kept for a reason
KEPT = {
    "linalg.py:_residual": "the eigen backward error of the health block "
                           "(ROADMAP items 1 and 9)",
    "line1d.py:assemble_mtf": "the one multitrace system builder of "
                              "ROADMAP item 12",
    "line1d.py:MtfSystem.solve": "the system of assemble_mtf (item 12)",
    "bem2d/mesh.py:BoundaryMesh.elements": "read by the benchmark "
                                           "tracer's mesh key",
}

RUNS = [
    ["1d-2dom"], ["1d-3dom"], ["1d-bounded"], ["schwarz-equiv"],
    ["spectrum-2d", "--geometry", "circle", "--n", "16"],
    ["spectrum-2d", "--geometry", "square", "--n", "160"],
    ["spectrum-2d", "--geometry", "circle", "--n", "16", "--a", "1,5"],
    ["spectrum-2d", "--geometry", "circle", "--n", "16",
     "--sigma", "0.1+0.2j,0.3"],
    ["spectrum-2d-3dom", "--n", "16"],
    ["spectrum-2d-3dom", "--n", "16", "--sigma", "0.1,0.2,0.3",
     "--a", "1,2,3"],
    ["sweep", "--kind", "1d", "--steps", "3"],
    ["sweep", "--kind", "1d-3dom", "--steps", "3"],
    ["sweep", "--kind", "2d", "--geometry", "circle", "--n", "16",
     "--steps", "3"],
    ["sweep", "--kind", "2d-3dom", "--n", "16", "--steps", "3"],
    ["--config", str(ROOT / "configs" / "fig2_circle.json"), "--n", "16"],
    ["1d-2dom", "--sigma", "-1"],
    ["1d-2dom", "--a", "1e-300"],
]
EXIT_CODES = [0] * 15 + [2, 3, 0]

# records the (file, first line) of every Python function entered while
# it drives cli.main through the runs of argv[1] into directory argv[2]
PROFILED_RUNS = """
import json, os, sys, threading
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(hook)
threading.setprofile(hook)
from multitrace import cli
codes = [cli.main(argv + ["--out", os.path.join(sys.argv[2], str(i))])
         for i, argv in enumerate(json.loads(sys.argv[1]))]
try:
    cli.main(["--help"])
except SystemExit as exc:
    codes.append(exc.code)
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _defs():
    """``{"file:Qual.name": (path, first line)}`` of every def under
    ``src/``; the first line is a decorator's when there is one, as in
    the def's code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[f"{path.relative_to(PACKAGE).as_posix()}:{name}"] = (
                    path, first)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "")
    return found


def test_every_src_function_runs_from_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROFILED_RUNS, json.dumps(RUNS),
         str(tmp_path)], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == EXIT_CODES
    entered = {(Path(f).resolve(), line) for f, line in result["entered"]}
    unreached = {name for name, (path, line) in _defs().items()
                 if (path.resolve(), line) not in entered}
    assert unreached == set(KEPT)
