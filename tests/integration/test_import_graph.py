"""What a fresh process imports to serve a solver-free campaign.

``scipy.stats`` costs about a second and 22 MB to import; the rank tests
the pipeline runs come from :mod:`repro.ranks` instead. A caching
campaign solves nothing, so it must not load SciPy at all (HiGHS, via
``scipy.optimize``, loads on the first solve).

Domains load only when used: the registry reads every domain's
``plugin.py``, and the domain packages' ``__init__`` files stay lazy, so
a caching campaign loads none of TE (nor networkx, which TE's topology
needs), binpack or sched, and planning a binpack+sched campaign loads no
networkx.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "networkx": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
    "domains": sorted(m for m in sys.modules if m.startswith("repro.domains.")),
}))
"""

PLAN_CHILD = """
import json, sys

from repro.parallel.campaign import CampaignSpec, plan_campaign

spec = CampaignSpec.from_dict({
    "name": "binpack-sched",
    "seed": 7,
    "jobs": [
        {"name": "ff", "problem": {"domain": "binpack",
            "kwargs": {"num_balls": 4, "num_bins": 3}}},
        {"name": "ls", "problem": {"domain": "sched",
            "kwargs": {"num_jobs": 3, "num_machines": 2}},
            "config": {"analyzer": "blackbox"}},
    ],
})
print(json.dumps({
    "units": len(plan_campaign(spec)),
    "networkx": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
}))
"""


def _run_child(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def caching_campaign() -> dict:
    return _run_child(CHILD)


def test_caching_campaign_never_imports_scipy(caching_campaign):
    result = caching_campaign
    assert result["status"] == 0
    # The smoke job reports a region, so the significance checker ran.
    assert result["subspaces"] >= 1
    assert "scipy.stats" not in result["scipy"]
    assert result["scipy"] == []


def test_caching_campaign_loads_no_other_domain(caching_campaign):
    result = caching_campaign
    assert result["status"] == 0
    assert result["networkx"] == []
    others = [
        m
        for m in result["domains"]
        if m.split(".")[2] in ("te", "binpack", "sched")
    ]
    # only what listing the domains reads: each package and its plugin
    assert others == [
        f"repro.domains.{name}{part}"
        for name in ("binpack", "sched", "te")
        for part in ("", ".plugin")
    ]


def test_planning_binpack_and_sched_loads_no_networkx():
    result = _run_child(PLAN_CHILD)
    assert result["units"] == 2
    assert result["networkx"] == []
