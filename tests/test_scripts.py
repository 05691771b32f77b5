"""Smoke tests of the scripts under `scripts/`, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

GOODNESS_RATES = {
    "general": """default: p=178 q=89
q=   89 p=   178: good 3/3
q=   44 p=    88: good 3/3
q=   22 p=    44: good 3/3
q=   11 p=    22: good 3/3
q=    5 p=    10: good 1/3
q=    2 p=     4: good 0/3
q=    1 p=     2: good 0/3
""",
    "single-source": """default: p=24 q=6
q=    6 p=    24: good 3/3
q=    3 p=    12: good 3/3
q=    1 p=     4: good 0/3
""",
}


@pytest.mark.parametrize("mode, k", [("general", 1), ("single-source", 2)])
def test_goodness_rates_script(mode, k):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "goodness_rates.py"),
         "--terminals", "4", "--k", str(k), "--seeds", "3", "--mode", mode],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout == GOODNESS_RATES[mode]


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a comment after code


def f(x):
    """Function docstring."""

    text = """a string that is
not a docstring"""
    return (x,
            text)
'''


def test_code_lines_script(tmp_path):
    # counted: import, def, the two lines of `text`, the two of the return
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text("# nothing but a comment\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"),
         str(tmp_path / "pkg")],
        capture_output=True, text=True, timeout=60, check=True)
    pkg = tmp_path / "pkg"
    assert proc.stdout == (f"0 {pkg / 'empty.py'}\n"
                           f"6 {pkg / 'mod.py'}\ntotal 6\n")
