import json
import os
import subprocess
import sys
from pathlib import Path

import ncwishart
import ncwishart.measures
import ncwishart.report
import ncwishart.samplers
import ncwishart.symcore
import ncwishart.verify
import ncwishart.zonal

# Run in a fresh interpreter: other test modules import scipy themselves.
_PROBE = """
import json, sys
import ncwishart
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
before = set(sys.modules)
ncwishart.run_suite("all", ncwishart.RunConfig(trials=20))
assert "numpy.ma" not in sys.modules, "numpy.ma was loaded"
print(json.dumps({"scipy": loaded, "new": sorted(set(sys.modules) - before)}))
"""


def test_import_loads_no_scipy_and_the_suite_imports_nothing_more():
    src = str(Path(ncwishart.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert modules == {"scipy": [], "new": []}


def test_every_exported_name_resolves():
    modules = [ncwishart, ncwishart.zonal, ncwishart.measures, ncwishart.samplers]
    modules += [ncwishart.symcore, ncwishart.report, ncwishart.verify]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
