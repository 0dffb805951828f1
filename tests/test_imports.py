"""What `import isodist` loads: scipy subpackages are imported by the
functions that use them, so every CLI call does not pay for them."""

import os
import subprocess
import sys
from pathlib import Path

import isodist

SRC = str(Path(isodist.__file__).resolve().parents[1])

SCRIPT = """
import sys
import isodist, isodist.cli
lazy = ("scipy.stats", "scipy.integrate")
print(",".join(m for m in lazy if m in sys.modules))
chk = isodist.transfer_map_check(3, 2000, seed=5)
print(chk.ok, chk.min_ks_pvalue, "scipy.stats" in sys.modules)
"""


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == ""
    ok, pvalue, stats_loaded = out[1].split()
    # the transfer check imports scipy.stats on first use and still works
    assert ok == "True" and stats_loaded == "True"
    assert float(pvalue) == isodist.transfer_map_check(3, 2000, seed=5).min_ks_pvalue
