"""README's code runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    """The first ```python block under the ``## heading`` of README."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_python_block("Library quick start"), str(README), "exec"),
         namespace)
    # the printed pencil result and the closing map result are one spectrum
    rho, remainder = map(float, capsys.readouterr().out.split())
    assert abs(rho - namespace["result"].spectral_radius) < 1e-12
    assert remainder == namespace["result"].remainder_fraction
