"""The end-to-end XPlain pipeline (Fig. 3).

Exports load lazily, so ``repro.core.config`` (which campaign planning
imports to validate job configs) does not pull in the whole pipeline.
"""

from __future__ import annotations

_LAZY_EXPORTS = {
    "ExplainedSubspace": "repro.core.results",
    "XPlain": "repro.core.pipeline",
    "XPlainConfig": "repro.core.config",
    "XPlainReport": "repro.core.results",
    "render_gap_table": "repro.core.visualize",
    "render_layered_graph": "repro.core.visualize",
    "render_region_matrix": "repro.core.visualize",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
