"""The package's public names and what importing it loads."""
import subprocess
import sys
from pathlib import Path

import qsreg

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert len(set(qsreg.__all__)) == len(qsreg.__all__)
    missing = [name for name in qsreg.__all__ if not hasattr(qsreg, name)]
    assert missing == []


def test_importing_the_package_and_its_cli_loads_no_scipy():
    """A cold start, ``import qsreg, qsreg.cli`` in a fresh interpreter, stays free of
    scipy, which only the test-only oracles use."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qsreg, qsreg.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
