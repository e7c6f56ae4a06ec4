"""Exception hierarchy for the XPlain reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package-level failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SolverError(ReproError):
    """Base class for errors raised by the LP/MILP solver substrate."""


class InfeasibleError(SolverError):
    """The model has no feasible solution.

    Raised only by APIs documented to raise on infeasibility; the solver's
    ``solve`` entry points normally report infeasibility through the solution
    status instead.
    """


class UnboundedError(SolverError):
    """The model's objective is unbounded in the optimization direction."""


class ModelError(SolverError):
    """The model is malformed (e.g. a variable from another model was used)."""


class DslError(ReproError):
    """Base class for errors in the network-flow DSL."""


class GraphValidationError(DslError):
    """A flow graph violates a structural rule of its node behaviors."""


class CompilerError(ReproError):
    """The DSL-to-optimization compiler could not lower a construct."""


class AnalyzerError(ReproError):
    """The heuristic analyzer could not encode or solve an analysis."""


class SubspaceError(ReproError):
    """The adversarial subspace generator was configured inconsistently."""


class SearchError(ReproError):
    """The adaptive gap-search subsystem was misconfigured or overdrawn."""


class CampaignInterrupted(ReproError):
    """A campaign was stopped cooperatively at a unit boundary.

    Raised by :func:`repro.parallel.campaign.run_campaign` when its
    ``should_stop`` callback fires: every completed unit has already
    been persisted and the campaign's store row is back to ``pending``,
    so a later run (or a restarted service) resumes exactly where this
    one stopped.
    """

    def __init__(self, campaign_id: str, completed: int, total: int) -> None:
        self.campaign_id = campaign_id
        self.completed = completed
        self.total = total
        super().__init__(
            f"campaign {campaign_id!r} interrupted after "
            f"{completed}/{total} units (completed work is persisted)"
        )


class ServiceBusy(ReproError):
    """The analysis service's submission queue is at capacity.

    The HTTP layer maps this to ``429 Too Many Requests`` — the
    backpressure face of a bounded submit queue.
    """


class ExplainError(ReproError):
    """The explainer could not score or render a subspace."""


class GeneralizeError(ReproError):
    """The generalizer or instance generator hit an unusable configuration."""
