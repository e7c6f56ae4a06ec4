"""High-level compile entry points.

``compile_graph`` turns a flow graph into a ready-to-solve model (optionally
rewritten and presolved); ``solve_graph`` compiles and solves in one call,
with the graph's input supplies fixed to given values. Inside the package
its callers are the compiled-DSL helpers: ``solve_te_graph`` (the Fig. 4a
TE graph) and the Appendix-A encoder behind ``repro encode``. The
explainer does not solve graphs; it reads each problem's edge flows
(``flows_batch``, or per-point ``heuristic_flows``/``benchmark_flows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.compiler.lowering import lower_graph
from repro.compiler.rewrite import RewriteStats, rewrite_graph
from repro.compiler.varmap import EdgeKey, VarMap
from repro.dsl.graph import FlowGraph
from repro.solver.model import Model
from repro.solver.presolve import PresolveResult, presolve
from repro.solver.solution import Solution


@dataclass
class CompiledModel:
    """A lowered flow graph plus everything needed to interpret solutions."""

    graph: FlowGraph
    model: Model
    varmap: VarMap
    rewrite_stats: RewriteStats | None = None
    presolve_result: PresolveResult | None = None

    def solve(self) -> Solution:
        """Solve and (when presolved) recover original-variable values."""
        if self.presolve_result is not None:
            return self.presolve_result.solve()
        return self.model.solve()

    def flows(self, solution: Solution) -> dict[EdgeKey, float]:
        return self.varmap.flows(solution)


def compile_graph(
    graph: FlowGraph,
    inputs: Mapping[str, float] | None = None,
    rewrite: bool = True,
    run_presolve: bool = True,
    prefix: str = "",
) -> CompiledModel:
    """Lower ``graph`` to a model.

    ``inputs`` pins adversarial input supplies to concrete values. With
    ``rewrite``/``run_presolve`` enabled this is the "compiled DSL" path the
    paper benchmarks against hand-written encodings; disabling both gives
    the naive lowering.
    """
    working = graph
    rewrite_stats = None
    if rewrite:
        working, rewrite_stats = rewrite_graph(graph)
    model = Model(name=f"{graph.name}_model", sense=working.objective_sense)
    varmap = lower_graph(working, model, inputs=inputs, prefix=prefix)
    presolve_result = presolve(model) if run_presolve else None
    return CompiledModel(
        graph=working,
        model=model,
        varmap=varmap,
        rewrite_stats=rewrite_stats,
        presolve_result=presolve_result,
    )


def solve_graph(
    graph: FlowGraph,
    inputs: Mapping[str, float] | None = None,
    rewrite: bool = True,
    run_presolve: bool = True,
) -> tuple[Solution, CompiledModel]:
    """Compile and solve in one call; returns (solution, compiled model)."""
    compiled = compile_graph(
        graph, inputs=inputs, rewrite=rewrite, run_presolve=run_presolve
    )
    return compiled.solve(), compiled

