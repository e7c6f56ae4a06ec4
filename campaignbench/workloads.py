"""The campaign workloads, generated from a workload seed.

The benchmark process never imports the program: it only writes the
campaign spec a workload asks for, and the program (``child.py`` or
``repro serve``) sees nothing but that spec. The reason each workload
exists, and which per-layer metric should move on which workload, is
data in ``layers.json`` beside this file.

``BENCHMARK.json`` declares ``milp`` and ``service``. ``te`` and
``caching`` still run on request (``run.py --workload te``) but are not
declared, so they gate no change; ``layers.json`` records why.

Every domain knob is passed explicitly: registry knob defaults are not
applied to campaign specs, so a bare ``{"domain": "binpack"}`` block
would fail inside the factory.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MAP_PATH = Path(__file__).with_name("layers.json")

#: generator settings of ``examples/campaign_smoke.json``
SMOKE_DEFAULTS = {
    "explainer_samples": 60,
    "generalizer_samples": 60,
    "generator": {
        "max_subspaces": 1,
        "tree_extra_samples": 120,
        "significance_pairs": 24,
    },
}

#: ``repro domains --campaign-spec caching`` defaults (the service's jobs)
SERVICE_DEFAULTS = {
    "explainer_samples": 40,
    "generalizer_samples": 40,
    "generator": {
        "max_subspaces": 1,
        "significance_pairs": 12,
        "tree_extra_samples": 60,
    },
}

TE_KWARGS = {"threshold": 50.0, "d_max": 100.0}
CACHING_KWARGS = {"num_items": 4, "capacity": 2, "trace_len": 12}
CACHING_SMOKE_KWARGS = {"num_items": 3, "capacity": 2, "trace_len": 8}
SERVICE_JOBS = 4

#: workloads whose campaign runs in a benchmark-owned process
IN_PROCESS = ("te", "milp", "caching")
WORKLOADS = IN_PROCESS + ("service",)
#: the workloads ``BENCHMARK.json`` declares
DECLARED = ("milp", "service")


def interaction_map() -> dict:
    """The workload reasons and the per-layer interaction map."""
    return json.loads(MAP_PATH.read_text())


def end_to_end_units() -> dict[str, str]:
    return {
        name: entry["unit"]
        for name, entry in interaction_map()["end_to_end"].items()
    }


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in interaction_map()["layers"].values():
        for name, entry in layer["metrics"].items():
            units[name] = entry if isinstance(entry, str) else entry["unit"]
    return units


def derive(seed: int, label: str) -> int:
    """A 31-bit seed owned by ``label`` under the workload seed."""
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def campaign_spec(workload: str, seed: int, rep: int = 0) -> dict:
    """The campaign spec ``workload`` runs for workload seed ``seed``.

    ``rep`` numbers the distinct campaigns one run submits (the service
    would serve a repeated spec from its store); each has its own seed.
    """
    label = f"campaign:{workload}" if rep == 0 else f"campaign:{workload}:{rep}"
    spec_seed = derive(seed, label)
    if workload == "te":
        jobs = [
            _job("te-fig1a", "te", dict(TE_KWARGS, fig4a=False)),
            _job("te-fig4a", "te", dict(TE_KWARGS, fig4a=True)),
        ]
        defaults = {"generator": {"max_subspaces": 3}}
    elif workload == "milp":
        jobs = [
            _job("binpack-4x3", "binpack", {"num_balls": 4, "num_bins": 3}),
            _job(
                "sched-3x2",
                "sched",
                {"num_jobs": 3, "num_machines": 2},
                {"analyzer": "blackbox"},
            ),
        ]
        defaults = SMOKE_DEFAULTS
    elif workload == "caching":
        jobs = [
            _job(
                "caching-lru-bandit",
                "caching",
                dict(CACHING_KWARGS, policy="lru"),
                {"search": {"policy": "bandit", "budget": 4096}},
            ),
            _job(
                "caching-fifo-uniform",
                "caching",
                dict(CACHING_KWARGS, policy="fifo"),
                {"search": {"policy": "uniform"}},
            ),
        ]
        defaults = {}
    elif workload == "service":
        jobs = [
            _job(
                f"caching-smoke-{i}",
                "caching",
                dict(CACHING_SMOKE_KWARGS, policy=("lru", "fifo")[i % 2]),
            )
            for i in range(SERVICE_JOBS)
        ]
        defaults = SERVICE_DEFAULTS
    else:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    return {
        "name": f"bench-{workload}",
        "seed": spec_seed,
        "defaults": json.loads(json.dumps(defaults)),
        "jobs": jobs,
    }


def _job(name: str, domain: str, kwargs: dict, config: dict | None = None):
    return {
        "name": name,
        "problem": {"domain": domain, "kwargs": kwargs},
        "config": dict(config or {}),
    }
