"""Theorem A.1 live: any MILP as a six-node-behavior flow graph.

Run:  python examples/appendix_a_encoding.py

Encodes a knapsack MILP with the Appendix-A constructive proof, prints the
resulting flow graph (SPLIT rows, MULTIPLY coefficients, ALL-EQUAL variable
ties, PICK binaries, the objective SINK), compiles it back, and recovers
the original optimum.
"""

from repro.compiler import encode_model
from repro.dsl import query
from repro.solver import Model, quicksum


def main() -> None:
    model = Model("knapsack", sense="max")
    items = {
        "tent": (3.0, 10.0),
        "stove": (4.0, 13.0),
        "rope": (2.0, 7.0),
    }
    choices = {
        name: model.add_var(name, vartype="binary") for name in items
    }
    model.add_constraint(
        quicksum(w * choices[n] for n, (w, _) in items.items()) <= 6,
        name="weight",
    )
    model.set_objective(
        quicksum(v * choices[n] for n, (_, v) in items.items())
    )

    print("=" * 70)
    print("Original MILP:")
    print(model.pretty())

    encoded = encode_model(model)
    graph = encoded.graph

    print()
    print("=" * 70)
    print(f"Appendix-A flow graph: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges")
    by_kind = query(graph.nodes).group_by(
        lambda n: "+".join(sorted(k.value for k in n.kinds))
    )
    for kinds, nodes in sorted(by_kind.items()):
        names = ", ".join(n.name for n in nodes[:6])
        suffix = ", ..." if len(nodes) > 6 else ""
        print(f"  {kinds:<18} x{len(nodes):<3} {names}{suffix}")

    value, assignment = encoded.solve()
    direct = model.solve()

    print()
    print("=" * 70)
    print("Round-trip check:")
    print(f"  direct solve:         {direct.objective:g}")
    print(f"  via the flow graph:   {value:g}")
    picks = {v.name: round(x) for v, x in assignment.items()}
    print(f"  recovered knapsack:   {[n for n, x in picks.items() if x]}")
    assert abs(value - direct.objective) < 1e-6


if __name__ == "__main__":
    main()
