"""Picklable problem recipes for worker processes.

An :class:`~repro.analyzer.interface.AnalyzedProblem` is a bundle of
closures (gap oracle, flow extractors, canonicalizer) and therefore does
not pickle. Campaign units instead carry a :class:`ProblemSpec` — the
dotted path of a factory callable plus JSON-safe keyword arguments — and
rebuild the problem in whichever process runs the unit. Domain
constructors with picklable arguments attach a spec automatically (see
:func:`repro.domains.binpack.first_fit_problem`,
:func:`repro.domains.te.fig1a_demand_pinning_problem`), so their problems
work in campaign specs out of the box.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from repro.exceptions import AnalyzerError


@dataclass(frozen=True)
class ProblemSpec:
    """A rebuildable description of one analyzed problem.

    ``factory`` is ``"package.module:callable"``; ``kwargs`` must be
    JSON-serializable so specs round-trip through campaign spec files.
    """

    factory: str
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if ":" not in self.factory:
            raise AnalyzerError(
                f"problem spec factory {self.factory!r} must be "
                "'package.module:callable'"
            )

    # ------------------------------------------------------------------
    def build(self):
        """Import the factory and construct the problem."""
        module_name, _, attr = self.factory.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise AnalyzerError(
                f"problem spec factory module {module_name!r} "
                f"failed to import: {exc}{_domain_hint(module_name)}"
            ) from exc
        try:
            factory = getattr(module, attr)
        except AttributeError:
            raise AnalyzerError(
                f"module {module_name!r} has no factory "
                f"{attr!r}{_domain_hint(module_name)}"
            ) from None
        problem = factory(**self.kwargs)
        if getattr(problem, "spec", None) is None:
            problem.spec = self
        return problem

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON form. Always factory-addressed: a spec parsed
        from a ``{"domain": ...}`` block serializes to the factory it
        resolved to, so content-addressed run IDs never depend on which
        spelling the submitter used."""
        return {"factory": self.factory, "kwargs": dict(self.kwargs)}

    @staticmethod
    def from_dict(data: dict) -> "ProblemSpec":
        if not isinstance(data, dict):
            raise AnalyzerError(f"problem spec must be an object, got {data!r}")
        unknown = set(data) - {"factory", "kwargs", "domain"}
        if unknown:
            # A typoed key would otherwise be silently dropped and the
            # problem rebuilt with defaults — surface it instead.
            raise AnalyzerError(
                f"unknown problem spec keys {sorted(unknown)}; "
                "expected 'factory' or 'domain', plus optional 'kwargs'"
            )
        kwargs = data.get("kwargs", {})
        if not isinstance(kwargs, dict):
            raise AnalyzerError("problem spec 'kwargs' must be a mapping")
        domain = data.get("domain")
        factory = data.get("factory")
        for key, value in (("domain", domain), ("factory", factory)):
            if value is not None and not isinstance(value, str):
                raise AnalyzerError(
                    f"problem spec {key!r} must be a string, got {value!r}"
                )
        if domain is not None and factory is not None:
            raise AnalyzerError(
                "problem spec has both 'domain' and 'factory'; give one "
                "(a domain resolves to its registered factory)"
            )
        if domain is not None:
            from repro.domains.registry import registry

            # Unknown domains fail here with the registered list — not
            # later as a bare factory-import error inside a worker.
            factory = registry().get(domain).factory
        if factory is None:
            raise AnalyzerError("problem spec needs a 'factory' or 'domain' key")
        return ProblemSpec(factory=factory, kwargs=kwargs)


def _domain_hint(module_name: str) -> str:
    """Suffix pointing lost users at the registry for domain modules."""
    if not module_name.startswith("repro.domains"):
        return ""
    from repro.domains.registry import registry

    return (
        "; registered domains: "
        f"{', '.join(registry().names())} (see `repro domains`)"
    )
