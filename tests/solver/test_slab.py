"""Tests for the tensorized dual-simplex slab engine.

The load-bearing invariant: ``engine="tensor"`` and ``engine="scalar"``
are **bit-identical** — same statuses, same objective doubles, same y
vectors, same iteration counts, same warm flags, same bases — because
the tensor engine replicates the scalar engine's arithmetic elementwise.
Everything else (chunking, bad seeds, degenerate shapes) must preserve
that equality while still returning correct optima.

The domain-shaped templates at the end drive both engines through
:meth:`LpTemplate.solve_slab` on LP structures like those of the four
built-in domains. Their right-hand sides come from fixed integer seeds,
so every run draws the same batches.
"""

import numpy as np
import pytest

import repro.solver.slab as slab_mod
from repro.domains.te import (
    build_demand_set,
    fig1a_demand_pairs,
    fig1a_topology,
)
from repro.domains.te.optimal import build_optimal_te_model
from repro.domains.te.pinning import build_pinning_template_model
from repro.exceptions import ModelError
from repro.solver import LpTemplate, Model, SolveStatus, quicksum
from repro.solver.slab import solve_slab
from repro.solver.standard_form import from_matrix_form


def build_transport_model():
    """max sum(w x) s.t. per-var caps, group caps, one coupling row."""
    model = Model("transport", sense="max")
    xs = [model.add_var(f"x{i}", lb=0.0) for i in range(6)]
    for i, x in enumerate(xs):
        model.add_constraint(x <= 1.0, name=f"dem[{i}]")
    model.add_constraint(quicksum(xs[:3]) <= 2.0, name="cap0")
    model.add_constraint(quicksum(xs[3:]) <= 2.5, name="cap1")
    model.add_constraint(xs[0] + xs[3] <= 1.2, name="cap2")
    model.set_objective(quicksum(xs))
    return model, xs


def transport_sf():
    model, _ = build_transport_model()
    return from_matrix_form(model.to_matrix_form(), normalize=False)


def fig1a_demand_set():
    return build_demand_set(fig1a_topology(), fig1a_demand_pairs(), num_paths=2)


def random_rhs(sf, rng, K):
    """Perturb the build-time rhs of the per-var cap rows (rows 0..5)."""
    B = np.tile(sf.b, (K, 1))
    B[:, :6] = rng.uniform(0.0, 3.0, size=(K, 6))
    return B


def assert_bitwise_equal(a, b):
    """Bitwise slab-result equality (nan objectives compare equal)."""
    assert a.statuses == b.statuses
    assert np.array_equal(a.objectives, b.objectives, equal_nan=True)
    assert np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.iterations, b.iterations)
    assert np.array_equal(a.warm, b.warm)
    assert a.bases == b.bases


class TestEngineEquality:
    def test_shared_objective_bitwise(self):
        sf = transport_sf()
        B = random_rhs(sf, np.random.default_rng(0), 64)
        tensor = solve_slab(sf, B, engine="tensor")
        scalar = solve_slab(sf, B, engine="scalar")
        assert_bitwise_equal(tensor, scalar)
        assert all(s is SolveStatus.OPTIMAL for s in tensor.statuses)
        # shared-seed protocol: first instance cold-seeds, rest warm
        assert not tensor.warm[0] and tensor.warm[1:].all()

    def test_per_instance_objective_bitwise(self):
        sf = transport_sf()
        rng = np.random.default_rng(1)
        K = 48
        B = random_rhs(sf, rng, K)
        C = np.tile(sf.c, (K, 1))
        # retarget the structural (minimization-space) coefficients
        C[:, :6] = -rng.uniform(0.5, 2.0, size=(K, 6))
        tensor = solve_slab(sf, B, C, engine="tensor")
        scalar = solve_slab(sf, B, C, engine="scalar")
        assert_bitwise_equal(tensor, scalar)

    def test_explicit_start_basis_bitwise(self):
        sf = transport_sf()
        rng = np.random.default_rng(2)
        B = random_rhs(sf, rng, 32)
        seed_run = solve_slab(sf, B[:1], engine="scalar")
        seed = seed_run.carry_basis
        assert seed is not None
        tensor = solve_slab(sf, B, start_basis=seed, engine="tensor")
        scalar = solve_slab(sf, B, start_basis=seed, engine="scalar")
        assert_bitwise_equal(tensor, scalar)
        assert tensor.warm.all()

    def test_matches_fresh_model_solves(self):
        model, xs = build_transport_model()
        template = LpTemplate(model)
        rng = np.random.default_rng(3)
        K = 40
        d = rng.uniform(0.0, 3.0, size=(K, 6))
        B = np.tile(template.base_rhs(), (K, 1))
        rows, signs, shifts = template.rhs_map([f"dem[{i}]" for i in range(6)])
        B[:, rows] = signs * d - shifts
        result = template.solve_slab(B)
        assert result.ok.all()
        for k in range(K):
            ref = Model("ref", sense="max")
            ys = [ref.add_var(f"x{i}", lb=0.0) for i in range(6)]
            for i, y in enumerate(ys):
                ref.add_constraint(y <= float(d[k, i]))
            ref.add_constraint(quicksum(ys[:3]) <= 2.0)
            ref.add_constraint(quicksum(ys[3:]) <= 2.5)
            ref.add_constraint(ys[0] + ys[3] <= 1.2)
            ref.set_objective(quicksum(ys))
            expected = ref.solve()
            assert result.objectives[k] == pytest.approx(
                expected.objective, abs=1e-8
            )

    def test_chunked_equals_unchunked(self, monkeypatch):
        sf = transport_sf()
        B = random_rhs(sf, np.random.default_rng(4), 40)
        whole = solve_slab(sf, B, engine="tensor")
        # force ~8-instance chunks through the same entry point
        cells = (sf.a.shape[0] + 1) * (sf.a.shape[1] + 1)
        monkeypatch.setattr(slab_mod, "MAX_TENSOR_CELLS", 8 * cells)
        chunked = solve_slab(sf, B, engine="tensor")
        assert_bitwise_equal(whole, chunked)


class TestDegenerateInputs:
    def test_invalid_start_basis_falls_back_cold(self):
        sf = transport_sf()
        B = random_rhs(sf, np.random.default_rng(5), 8)
        reference = solve_slab(sf, B, engine="scalar")
        for bad in ([0, 1], [0] * sf.a.shape[0], [10 ** 6] * sf.a.shape[0]):
            tensor = solve_slab(sf, B, start_basis=bad, engine="tensor")
            scalar = solve_slab(sf, B, start_basis=bad, engine="scalar")
            assert_bitwise_equal(tensor, scalar)
            assert not tensor.warm.any()
            assert np.allclose(tensor.objectives, reference.objectives)

    def test_singular_start_basis_falls_back_cold(self):
        sf = transport_sf()
        m = sf.a.shape[0]
        B = random_rhs(sf, np.random.default_rng(6), 8)
        singular = [6] * m  # repeated column -> singular basis matrix
        tensor = solve_slab(sf, B, start_basis=singular, engine="tensor")
        scalar = solve_slab(sf, B, start_basis=singular, engine="scalar")
        assert_bitwise_equal(tensor, scalar)
        assert all(s is SolveStatus.OPTIMAL for s in tensor.statuses)

    def test_infeasible_instances(self):
        model = Model("infeas", sense="max")
        x = model.add_var("x", lb=0.0)
        y = model.add_var("y", lb=0.0)
        model.add_constraint(x <= 1.0, name="cap_x")
        model.add_constraint(y <= 1.0, name="cap_y")
        model.add_constraint(x + y == 1.0, name="couple")
        model.set_objective(x + y)
        template = LpTemplate(model)
        K = 6
        B = np.tile(template.base_rhs(), (K, 1))
        rows, signs, shifts = template.rhs_map(["couple"])
        # instances 0,2,4 demand more coupled mass than the caps allow
        targets = np.array([[5.0], [1.0], [9.0], [0.5], [3.0], [1.5]])
        B[:, rows] = signs * targets - shifts
        tensor = template.solve_slab(B, engine="tensor")
        fresh = LpTemplate(model)
        scalar = fresh.solve_slab(B, engine="scalar")
        assert tensor.statuses == scalar.statuses
        assert [s is SolveStatus.OPTIMAL for s in tensor.statuses] == [
            False, True, False, True, False, True,
        ]
        assert np.array_equal(
            tensor.objectives, scalar.objectives, equal_nan=True
        )

    def test_unbounded_instances(self):
        model = Model("unbounded", sense="max")
        x = model.add_var("x", lb=0.0)
        y = model.add_var("y", lb=0.0)
        model.add_constraint(x - y <= 1.0, name="gap")
        model.set_objective(x)
        template = LpTemplate(model)
        B = np.tile(template.base_rhs(), (4, 1))
        tensor = template.solve_slab(B, engine="tensor")
        fresh = LpTemplate(model)
        scalar = fresh.solve_slab(B, engine="scalar")
        assert tensor.statuses == scalar.statuses
        assert all(s is SolveStatus.UNBOUNDED for s in tensor.statuses)

    def test_empty_slab(self):
        sf = transport_sf()
        result = solve_slab(sf, np.empty((0, sf.a.shape[0])))
        assert result.statuses == []
        assert result.carry_basis is None

    def test_rowless_lp(self):
        model = Model("rowless", sense="min")
        model.add_var("x", lb=0.0)
        model.set_objective(model.variables[0])
        template = LpTemplate(model)
        result = template.solve_slab(np.empty((3, 0)))
        assert result.ok.all()
        assert np.allclose(result.objectives, 0.0)

    def test_bad_shapes_rejected(self):
        sf = transport_sf()
        with pytest.raises(ValueError):
            solve_slab(sf, np.zeros(sf.a.shape[0]))
        with pytest.raises(ValueError):
            solve_slab(sf, np.zeros((2, sf.a.shape[0] + 1)))
        with pytest.raises(ValueError):
            solve_slab(
                sf,
                np.zeros((2, sf.a.shape[0])),
                c_matrix=np.zeros((3, sf.a.shape[1])),
            )


class TestTemplateIntegration:
    def test_counters_and_carry_match_engines(self):
        model, _ = build_transport_model()
        B = None
        results = {}
        counters = {}
        for engine in ("tensor", "scalar"):
            template = LpTemplate(model)
            if B is None:
                rng = np.random.default_rng(7)
                K = 30
                B = np.tile(template.base_rhs(), (K, 1))
                rows, signs, shifts = template.rhs_map(
                    [f"dem[{i}]" for i in range(6)]
                )
                B[:, rows] = signs * rng.uniform(0.0, 3.0, (K, 6)) - shifts
            results[engine] = template.solve_slab(B, engine=engine)
            counters[engine] = template.solver_counters()
            counters[engine].pop("lp_seconds")
            template_basis = template._basis
            counters[engine]["carry"] = template_basis
        assert counters["tensor"] == counters["scalar"]
        a, b = results["tensor"], results["scalar"]
        assert a.statuses == b.statuses
        assert np.array_equal(a.objectives, b.objectives, equal_nan=True)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.iterations, b.iterations)

    def test_mip_template_still_rejected(self):
        from repro.solver import VarType

        model = Model("mip", sense="max")
        x = model.add_var("x", lb=0.0, vartype=VarType.INTEGER)
        model.add_constraint(x <= 3.0)
        model.set_objective(x)
        with pytest.raises(ModelError):
            LpTemplate(model)


class TestEngineSelection:
    def test_bad_engine_argument_raises(self):
        sf = transport_sf()
        B = random_rhs(sf, np.random.default_rng(9), 4)
        for engine in ("Tensor", "off", None):
            with pytest.raises(ValueError, match=f"{engine!r}.*'tensor' or 'scalar'"):
                solve_slab(sf, B, engine=engine)
        model, _ = build_transport_model()
        template = LpTemplate(model)
        with pytest.raises(ValueError, match="'fast'"):
            template.solve_slab(np.tile(template.base_rhs(), (2, 1)), engine="fast")
        # the rejected call solved nothing and left no warm-start carry
        assert template.warm_solves == template.cold_solves == 0
        assert template._basis is None


# ---------------------------------------------------------------------------
# domain-shaped templates: tensor == scalar bitwise through LpTemplate
# ---------------------------------------------------------------------------


def te_templates():
    """The real TE templates (fig. 1a), parametric demand rows."""
    ds = fig1a_demand_set()
    d_max = 100.0
    full = {key: d_max for key in ds.keys}
    ranges = {f"dem[{key}]": (0.0, d_max) for key in ds.keys}
    opt_model, _ = build_optimal_te_model(ds, full)
    dp_model, _ = build_pinning_template_model(ds, d_max)
    dp_ranges = dict(ranges)
    for demand in ds.demands:
        for path in demand.paths[1:]:
            dp_ranges[f"blk[{demand.key}|{path.name}]"] = (0.0, d_max)
    return [
        ("te-opt", opt_model, ranges, 101),
        ("te-dp", dp_model, dp_ranges, 102),
    ]


def binpack_template():
    """Fractional VBP relaxation: assignment rows + parametric bin caps."""
    sizes = [0.6, 0.5, 0.4, 0.3]
    bins = 3
    model = Model("vbp_lp", sense="min")
    x = {
        (i, j): model.add_var(f"x[{i}|{j}]", lb=0.0)
        for i in range(len(sizes))
        for j in range(bins)
    }
    for i in range(len(sizes)):
        model.add_constraint(
            quicksum(x[i, j] for j in range(bins)) == 1.0, name=f"assign[{i}]"
        )
        for j in range(bins):
            model.add_constraint(x[i, j] <= 1.0, name=f"frac[{i}|{j}]")
    for j in range(bins):
        model.add_constraint(
            quicksum(sizes[i] * x[i, j] for i in range(len(sizes))) <= 1.0,
            name=f"cap[{j}]",
        )
    model.set_objective(
        quicksum((j + 1) * x[i, j] for (i, j) in x)
    )
    ranges = {f"cap[{j}]": (0.8, 1.5) for j in range(bins)}
    return "binpack-lp", model, ranges, 103


def sched_template():
    """Fractional makespan relaxation: parametric machine-load caps."""
    durations = [3.0, 2.0, 2.0, 1.0]
    machines = 2
    model = Model("sched_lp", sense="max")
    x = {
        (i, j): model.add_var(f"x[{i}|{j}]", lb=0.0)
        for i in range(len(durations))
        for j in range(machines)
    }
    for i in range(len(durations)):
        model.add_constraint(
            quicksum(x[i, j] for j in range(machines)) <= 1.0,
            name=f"once[{i}]",
        )
    for j in range(machines):
        model.add_constraint(
            quicksum(
                durations[i] * x[i, j] for i in range(len(durations))
            )
            <= 4.0,
            name=f"load[{j}]",
        )
    model.set_objective(quicksum(durations[i] * v for (i, _), v in x.items()))
    ranges = {f"load[{j}]": (1.0, 6.0) for j in range(machines)}
    return "sched-lp", model, ranges, 104


def caching_template():
    """Fractional Belady relaxation: keep fractions under a cache cap."""
    weights = [5.0, 4.0, 3.0, 2.0, 1.0]
    model = Model("cache_lp", sense="max")
    keep = [
        model.add_var(f"keep[{i}]", lb=0.0) for i in range(len(weights))
    ]
    for i, k in enumerate(keep):
        model.add_constraint(k <= 1.0, name=f"unit[{i}]")
    model.add_constraint(quicksum(keep) <= 2.0, name="capacity")
    model.set_objective(
        quicksum(w * k for w, k in zip(weights, keep))
    )
    ranges = {"capacity": (1.0, float(len(weights)))}
    return "caching-lp", model, ranges, 105


def all_domain_templates():
    """``(name, model, rhs sampling ranges, rng seed)`` per structure."""
    return te_templates() + [
        binpack_template(),
        sched_template(),
        caching_template(),
    ]


@pytest.mark.parametrize(
    "name,model,ranges,seed",
    [pytest.param(*t, id=t[0]) for t in all_domain_templates()],
)
def test_domain_template_engines_agree(name, model, ranges, seed):
    """Template slab property: tensor == scalar bitwise on statuses,
    objectives, ``x`` and iterations over random rhs in ``ranges``."""
    K = 16
    rng = np.random.default_rng(seed)
    names = sorted(ranges)
    lows = np.array([ranges[c][0] for c in names])
    highs = np.array([ranges[c][1] for c in names])
    B_model = rng.uniform(lows, highs, size=(K, len(names)))
    results = {}
    for engine in ("tensor", "scalar"):
        template = LpTemplate(model)
        B = np.tile(template.base_rhs(), (K, 1))
        rows, signs, shifts = template.rhs_map(names)
        B[:, rows] = signs * B_model - shifts
        results[engine] = template.solve_slab(B, engine=engine)
    a, b = results["tensor"], results["scalar"]
    assert a.statuses == b.statuses, name
    assert np.array_equal(a.objectives, b.objectives, equal_nan=True)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.iterations, b.iterations)
