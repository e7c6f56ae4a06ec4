"""Parallel execution for the XPlain pipeline.

The unit of parallel work is a whole campaign job: one problem, one
config, one derived seed, one full pipeline run.

* :mod:`repro.parallel.spec` — :class:`ProblemSpec`, a picklable recipe
  for rebuilding an :class:`~repro.analyzer.interface.AnalyzedProblem`
  inside a worker process (closures do not pickle; factories do);
* :mod:`repro.parallel.work` — :class:`CampaignUnit`, the picklable
  campaign work unit, and :func:`evaluate_unit`, the oracle engine's
  stateless evaluation of one miss batch;
* :mod:`repro.parallel.shard` — shard→seed derivation, which gives every
  job, explanation and search cell its own random stream;
* :mod:`repro.parallel.executor` — :class:`SerialExecutor` (in-process)
  and :class:`ProcessExecutor` (process pool);
* :mod:`repro.parallel.campaign` — fan a list of problems/configs out
  across the pool and aggregate the reports with merged
  :class:`~repro.oracle.stats.OracleStats`.

See DESIGN.md §9 ("Parallel execution") for the determinism argument.
"""

from repro.parallel.campaign import (
    CampaignJob,
    CampaignSpec,
    deterministic_view,
    load_campaign_spec,
    run_campaign,
)
from repro.parallel.executor import Executor, ProcessExecutor, SerialExecutor
from repro.parallel.shard import derive_seed
from repro.parallel.spec import ProblemSpec
from repro.parallel.work import CampaignUnit, evaluate_unit

__all__ = [
    "CampaignJob",
    "CampaignSpec",
    "CampaignUnit",
    "Executor",
    "ProblemSpec",
    "ProcessExecutor",
    "SerialExecutor",
    "derive_seed",
    "deterministic_view",
    "evaluate_unit",
    "load_campaign_spec",
    "run_campaign",
]
