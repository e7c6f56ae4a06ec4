"""The XPlain analysis service: a serving front end over the run store.

X-SYS argues explanation systems need an interactive service layer
around the core analyzer; this package is that layer for XPlain
(DESIGN.md §10). :class:`~repro.service.service.AnalysisService` queues
submitted campaign specs onto the store-backed campaign runner (so work
persists, dedupes, and resumes), and :mod:`repro.service.http` exposes
it as a stdlib JSON HTTP API — ``repro serve`` from the CLI.
"""

from repro.service.http import (
    DEFAULT_PORT,
    MAX_BODY_BYTES,
    make_server,
    serve,
)
from repro.service.service import AnalysisService

__all__ = [
    "AnalysisService",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "make_server",
    "serve",
]
