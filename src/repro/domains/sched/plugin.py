"""Registry descriptor for the makespan-scheduling domain.

Ships no exact encoding by design (it demonstrates the black-box
analyzer path), which ``config_defaults`` makes explicit so the legacy
``repro sched`` behavior is preserved verbatim.
"""

from repro.domains.registry import DomainKnob, DomainPlugin

PLUGIN = DomainPlugin(
    name="sched",
    title="Makespan scheduling: Graham's list scheduling vs. optimal",
    factory="repro.domains.sched:list_scheduling_problem",
    aliases=("scheduling",),
    knobs=(
        DomainKnob(
            "num_jobs",
            "int",
            5,
            help="jobs to schedule (one input axis per duration)",
            cli="jobs",
        ),
        DomainKnob(
            "num_machines",
            "int",
            2,
            help="identical machines",
            cli="machines",
        ),
    ),
    smoke_kwargs={"num_jobs": 3, "num_machines": 2},
    config_defaults={"analyzer": "blackbox"},
    capabilities=("native-batch-oracle", "dsl-graph", "blackbox-analyzer"),
    legacy_cli=("sched",),
)
