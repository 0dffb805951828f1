"""What `import isodist` loads: scipy subpackages are imported by the
functions that use them, so every CLI call does not pay for them, and
`scipy.stats` is imported by none of them."""

import ast
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
print(chk.ok, repr(chk.min_ks_pvalue))
print(",".join(m for m in lazy if m in sys.modules))
"""


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # and so does a transfer check, which bounds its p-value in closed form
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == ""
    ok, pvalue = out[1].split()
    assert ok == "True" and out[2] == ""
    assert float(pvalue) == isodist.transfer_map_check(3, 2000, seed=5).min_ks_pvalue


def test_no_module_imports_scipy_stats():
    for path in Path(SRC, "isodist").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(m.startswith("scipy.stats") for m in names), (path.name, names)
