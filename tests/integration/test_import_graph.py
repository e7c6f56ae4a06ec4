"""What a fresh process imports to serve a solver-free campaign.

``scipy.stats`` costs about a second and 22 MB to import; the rank tests
the pipeline runs come from :mod:`repro.ranks` instead. A caching
campaign solves nothing, so it must not load SciPy at all (HiGHS, via
``scipy.optimize``, loads on the first solve).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import contextlib, io, json, os, sys, tempfile

import repro.cli
import repro.parallel.campaign
import repro.service

with tempfile.TemporaryDirectory() as tmp:
    spec = os.path.join(tmp, "spec.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        repro.cli.main(["domains", "--campaign-spec", "caching"])
    with open(spec, "w") as fh:
        fh.write(out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro.cli.main(["campaign", spec, "--out-dir", tmp])
    with open(os.path.join(tmp, "campaign.json")) as fh:
        subspaces = json.load(fh)["num_subspaces_total"]
print(json.dumps({
    "status": status,
    "subspaces": subspaces,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_caching_campaign_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["status"] == 0
    # The smoke job reports a region, so the significance checker ran.
    assert result["subspaces"] >= 1
    assert "scipy.stats" not in result["scipy"]
    assert result["scipy"] == []
