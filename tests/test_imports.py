"""The audit path imports numpy and scipy.special only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dpaudit


def test_import_skips_scipy_stats_and_optimize():
    # the uneven-inclusion p-value included: no dpaudit path needs them
    src = str(Path(dpaudit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys\n"
            "import dpaudit, dpaudit.cli\n"
            "dpaudit.p_value_general_p(40, 10, 5, 12, 0.5, 1e-3, 0.3)\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
    assert "scipy.optimize" not in loaded
