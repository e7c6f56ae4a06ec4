"""Compiler from the XPlain DSL to optimization models, and back.

* :mod:`repro.compiler.lowering` — per-node-behavior constraint emission;
* :mod:`repro.compiler.rewrite` — graph-level redundancy elimination;
* :mod:`repro.compiler.compile` — compile/solve entry points with presolve;
* :mod:`repro.compiler.varmap` — the stable edge <-> variable mapping;
* :mod:`repro.compiler.milp_to_dsl` — the Appendix-A encoder proving the
  DSL can express any LP/MILP (Theorem A.1).
"""

from repro.compiler.compile import (
    CompiledModel,
    compile_graph,
    solve_graph,
)
from repro.compiler.lowering import lower_graph
from repro.compiler.milp_to_dsl import EncodedProblem, encode_and_solve, encode_model
from repro.compiler.rewrite import RewriteStats, rewrite_graph
from repro.compiler.varmap import VarMap, flows_by_name

__all__ = [
    "CompiledModel",
    "EncodedProblem",
    "RewriteStats",
    "VarMap",
    "compile_graph",
    "encode_and_solve",
    "encode_model",
    "flows_by_name",
    "lower_graph",
    "rewrite_graph",
    "solve_graph",
]
