"""Tensorized dual-simplex slab solves: one LP structure, a stack of rhs.

The batched gap oracle asks the same LP template for hundreds of solves
that differ only in ``b`` (and, for the pinning model, ``c``). The
per-point path pays a dense refactorization plus Python pivot control flow
for every instance. This module batches the whole slab:

* every instance starts from one **shared basis** ``B0`` (the template's
  carried basis, or the basis of the slab's first cold solve), so the
  expensive ``B⁻¹A`` factorization happens once per slab instead of once
  per point;
* the dual-simplex rhs repair and the primal finish run in **lockstep**
  over a stacked tableau tensor ``(K, m+1, n+1)`` with a per-instance
  active mask — each instance follows its *own* exact pivot sequence
  (entering/leaving choices are vectorized per instance, not shared);
* instances the warm start cannot seed (singular basis, dual-infeasible
  start, iteration trouble) **fall out of the slab** and finish on the
  existing scalar path (a batched slack-basis cold start when the
  structure allows it, else :func:`~repro.solver.simplex.
  solve_standard_form` per instance).

Two engines implement the same protocol:

* ``engine="tensor"`` — the stacked implementation, and the one every
  production caller uses (the default).
* ``engine="scalar"`` — a per-instance loop over the existing
  :func:`~repro.solver.simplex.solve_with_basis` /
  :func:`~repro.solver.simplex.solve_standard_form` functions. This is the
  reference semantics: every arithmetic step of the tensor engine
  replicates its numpy expressions elementwise, so the two engines return
  **bit-identical** arrays (statuses, objectives, solution vectors,
  iteration counts). Tests pass ``engine="scalar"`` by name to hold the
  tensor engine to it, down to a whole TE analysis. A slab with no rows
  always runs here.

Any other ``engine`` raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.obs import runtime as _obs
from repro.solver.simplex import (
    MAX_ITER_FACTOR,
    STALL_LIMIT,
    TOL,
    solve_standard_form,
    solve_with_basis,
)
from repro.solver.solution import SolveStatus
from repro.solver.standard_form import StandardForm

#: Cap on stacked tableau cells per tensor pass; larger slabs are split
#: into sequential chunks that share the same seed basis (identical
#: results — instances are independent once ``B0`` is fixed).
MAX_TENSOR_CELLS = 4_000_000

@dataclass
class SlabResult:
    """Per-instance outcome of one slab solve (y-space, no ``c0``)."""

    #: per-instance solve status
    statuses: list[SolveStatus]
    #: minimized objective ``c @ y`` where optimal, ``nan`` elsewhere
    objectives: np.ndarray
    #: y-space solutions, rows valid only where optimal
    ys: np.ndarray
    #: simplex pivots charged per instance (final path only, matching
    #: :meth:`LpTemplate.solve` accounting)
    iterations: np.ndarray
    #: True where the shared basis produced a definitive warm result
    warm: np.ndarray
    #: per-instance optimal basis (``None`` when not optimal or when the
    #: cold path left an artificial basic)
    bases: list[list[int] | None]

    @property
    def carry_basis(self) -> list[int] | None:
        """Basis the template should carry to the next slab (last instance)."""
        return self.bases[-1] if self.bases else None


def _shadow(sf: StandardForm) -> StandardForm:
    """A shallow working copy whose ``b``/``c`` can be retargeted."""
    return replace(sf)


def solve_slab(
    sf: StandardForm,
    b_matrix: np.ndarray,
    c_matrix: np.ndarray | None = None,
    start_basis: list[int] | None = None,
    engine: str = "tensor",
    max_iter: int | None = None,
) -> SlabResult:
    """Solve ``K`` instances of ``sf`` differing only in ``b`` (and ``c``).

    ``b_matrix`` is ``(K, m)``; ``c_matrix`` is ``(K, n)`` or ``None`` to
    share ``sf.c``. All instances start from ``start_basis`` when given;
    otherwise the slab cold-solves leading instances until one yields a
    reusable basis and warm-starts the rest from it. The seed basis is
    fixed for the whole slab — results are a pure function of
    ``(sf, b_matrix, c_matrix, start_basis)``, independent of engine.
    ``engine`` is ``"tensor"`` or the reference ``"scalar"``.
    """
    if engine not in ("tensor", "scalar"):
        raise ValueError(
            f"unknown slab engine {engine!r}; expected 'tensor' or 'scalar'"
        )
    tensor = engine == "tensor"
    b_matrix = np.asarray(b_matrix, dtype=float)
    if b_matrix.ndim != 2:
        raise ValueError("b_matrix must be (K, m)")
    K = b_matrix.shape[0]
    m, n = sf.a.shape
    if b_matrix.shape[1] != m:
        raise ValueError(f"b_matrix has {b_matrix.shape[1]} rows, LP has {m}")
    if c_matrix is not None:
        c_matrix = np.asarray(c_matrix, dtype=float)
        if c_matrix.shape != (K, n):
            raise ValueError(f"c_matrix must be ({K}, {n})")
    if K == 0:
        return SlabResult(
            [], np.empty(0), np.empty((0, n)),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), [],
        )

    registry = _obs.registry()
    if registry is not None:
        effective = "tensor" if tensor and m > 0 else "scalar"
        registry.counter_inc(
            "xplain_solver_slab_solves_total",
            1,
            help="LP slab solves by effective engine",
            engine=effective,
        )
        registry.counter_inc(
            "xplain_solver_slab_instances_total",
            K,
            help="LP instances solved inside slabs, by effective engine",
            engine=effective,
        )

    if tensor and m > 0:
        chunk = max(1, MAX_TENSOR_CELLS // ((m + 1) * (n + 1)))
        if K > chunk:
            return _solve_chunked(sf, b_matrix, c_matrix, start_basis, max_iter, chunk)
        result, _ = _solve_tensor(sf, b_matrix, c_matrix, start_basis, max_iter)
        return result
    result, _ = _solve_scalar(sf, b_matrix, c_matrix, start_basis, max_iter)
    return result


def _solve_chunked(sf, B, C, start_basis, max_iter, chunk) -> SlabResult:
    """Sequential tensor chunks threading the discovered seed basis."""
    parts: list[SlabResult] = []
    seed = list(start_basis) if start_basis is not None else None
    for lo in range(0, B.shape[0], chunk):
        hi = lo + chunk
        part, seed = _solve_tensor(
            sf, B[lo:hi], None if C is None else C[lo:hi], seed, max_iter
        )
        parts.append(part)
    return SlabResult(
        statuses=[s for p in parts for s in p.statuses],
        objectives=np.concatenate([p.objectives for p in parts]),
        ys=np.concatenate([p.ys for p in parts]),
        iterations=np.concatenate([p.iterations for p in parts]),
        warm=np.concatenate([p.warm for p in parts]),
        bases=[b for p in parts for b in p.bases],
    )


# ---------------------------------------------------------------------------
# scalar reference engine
# ---------------------------------------------------------------------------

def _solve_scalar(sf, B, C, start_basis, max_iter):
    """Per-instance loop over the existing simplex entry points."""
    K, m = B.shape
    n = sf.a.shape[1]
    statuses: list[SolveStatus] = []
    bases: list[list[int] | None] = []
    objectives = np.full(K, np.nan)
    ys = np.zeros((K, n))
    iterations = np.zeros(K, dtype=np.int64)
    warm = np.zeros(K, dtype=bool)

    seed = list(start_basis) if start_basis is not None else None
    shadow = _shadow(sf)
    for k in range(K):
        shadow.b = B[k]
        if C is not None:
            shadow.c = C[k]
        result = None
        if seed is not None:
            result = solve_with_basis(shadow, seed, max_iter)
        if result is not None:
            warm[k] = True
        else:
            result = solve_standard_form(shadow, max_iter)
            if seed is None and result.basis is not None:
                seed = list(result.basis)
        statuses.append(result.status)
        iterations[k] = result.iterations
        if result.status is SolveStatus.OPTIMAL:
            objectives[k] = result.objective
            ys[k] = result.y
            bases.append(
                list(result.basis) if result.basis is not None else None
            )
        else:
            bases.append(None)
    return (
        SlabResult(statuses, objectives, ys, iterations, warm, bases),
        seed,
    )


# ---------------------------------------------------------------------------
# tensor engine
# ---------------------------------------------------------------------------

def _batched_pivot(T, idx, r, c):
    """Gauss-Jordan pivot of instance ``idx[i]`` on ``(r[i], c[i])``.

    Replicates :func:`~repro.solver.simplex._pivot` elementwise: divide the
    pivot row in place, then subtract multiples from every other row whose
    multiplier is nonzero. Skipped (zero-multiplier) rows subtract a
    literal ``0.0``, which is bitwise the identity for IEEE doubles of
    either zero sign.
    """
    ar = np.arange(len(idx))
    piv = T[idx, r, :] / T[idx, r, c][:, None]
    T[idx, r, :] = piv
    colv = T[idx, :, c]
    mask = colv != 0.0
    mask[ar, r] = False
    delta = np.where(mask[:, :, None], colv[:, :, None] * piv[:, None, :], 0.0)
    T[idx] = T[idx] - delta


def _batched_primal(T, basis_arr, start_idx, caps, active_cols):
    """Lockstep :func:`~repro.solver.simplex._run_simplex` over the stack.

    Returns per-instance ``(status_code, iterations)`` where the code is
    0=OPTIMAL, 1=UNBOUNDED, 2=ITERATION_LIMIT. ``caps`` is the remaining
    per-instance pivot budget; ``active_cols`` is the shared ``allowed``
    width (always the full ``n`` for warm and slack-basis starts).
    """
    W = T.shape[0]
    m = T.shape[1] - 1
    n = active_cols
    status = np.full(W, -1, dtype=np.int8)
    p_iters = np.zeros(W, dtype=np.int64)
    stall = np.zeros(W, dtype=np.int64)
    bland = np.zeros(W, dtype=bool)
    last_obj = T[:, -1, -1].copy()
    active = np.zeros(W, dtype=bool)
    active[start_idx] = True

    while active.any():
        idx = np.where(active)[0]
        capped = p_iters[idx] >= caps[idx]
        if capped.any():
            status[idx[capped]] = 2
            active[idx[capped]] = False
            idx = idx[~capped]
            if idx.size == 0:
                continue
        costs = T[idx, -1, :n]
        cand = costs < -TOL
        has = cand.any(axis=1)
        if not has.all():
            status[idx[~has]] = 0
            active[idx[~has]] = False
            idx = idx[has]
            if idx.size == 0:
                continue
            costs = costs[has]
            cand = cand[has]
        masked = np.where(cand, costs, np.inf)
        e = np.where(bland[idx], np.argmax(cand, axis=1), np.argmin(masked, axis=1))
        colv = T[idx, :m, e]
        rhsv = T[idx, :m, -1]
        elig = colv > TOL
        has_row = elig.any(axis=1)
        if not has_row.all():
            status[idx[~has_row]] = 1
            active[idx[~has_row]] = False
            idx = idx[has_row]
            if idx.size == 0:
                continue
            colv = colv[has_row]
            rhsv = rhsv[has_row]
            elig = elig[has_row]
            e = e[has_row]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(elig, rhsv / colv, np.inf)
        best = ratios.min(axis=1)
        ties = np.isclose(ratios, best[:, None], rtol=0.0, atol=1e-12)
        leave = np.argmax(ties, axis=1)
        tie_bland = bland[idx] & (ties.sum(axis=1) > 1)
        if tie_bland.any():
            # Bland: among tied rows, leave the min-index basic variable.
            bvals = np.where(ties, basis_arr[idx], T.shape[2])
            leave = np.where(tie_bland, np.argmin(bvals, axis=1), leave)
        _batched_pivot(T, idx, leave, e)
        basis_arr[idx, leave] = e
        p_iters[idx] += 1
        obj = T[idx, -1, -1]
        close = np.abs(obj - last_obj[idx]) <= TOL
        new_stall = np.where(close, stall[idx] + 1, 0)
        bland[idx] = np.where(close, bland[idx] | (new_stall >= STALL_LIMIT), False)
        stall[idx] = new_stall
        last_obj[idx] = obj
    return status, p_iters


def _extract_batch(T, basis_arr, idx, n):
    """Vectorized :func:`~repro.solver.simplex._extract_solution`."""
    m = T.shape[1] - 1
    A = len(idx)
    Y = np.zeros((A, n))
    brows = basis_arr[idx]
    rhs = T[idx, :m, -1]
    mask = brows < n
    owner = np.broadcast_to(np.arange(A)[:, None], (A, m))
    Y[owner[mask], brows[mask]] = rhs[mask]
    return Y


def _solve_tensor(sf, B, C, start_basis, max_iter):
    """Stacked-tableau engine; bitwise-equal to :func:`_solve_scalar`."""
    a = sf.a
    m, n = a.shape
    K = B.shape[0]
    cap = max_iter if max_iter is not None else MAX_ITER_FACTOR * max(m + n, 32)

    statuses: list[SolveStatus | None] = [None] * K
    bases: list[list[int] | None] = [None] * K
    objectives = np.full(K, np.nan)
    ys = np.zeros((K, n))
    iterations = np.zeros(K, dtype=np.int64)
    warm = np.zeros(K, dtype=bool)

    shadow = _shadow(sf)

    def record_result(k, result, is_warm):
        statuses[k] = result.status
        iterations[k] = result.iterations
        warm[k] = is_warm
        if result.status is SolveStatus.OPTIMAL:
            objectives[k] = result.objective
            ys[k] = result.y
            bases[k] = list(result.basis) if result.basis is not None else None

    def cold_python(k):
        shadow.b = B[k]
        if C is not None:
            shadow.c = C[k]
        return solve_standard_form(shadow, max_iter)

    # -- seed basis: cold-solve leading instances until one yields a basis
    seed = list(start_basis) if start_basis is not None else None
    first_unsolved = 0
    if seed is None:
        for k in range(K):
            result = cold_python(k)
            record_result(k, result, False)
            first_unsolved = k + 1
            if result.basis is not None:
                seed = list(result.basis)
                break
    remaining = list(range(first_unsolved, K))
    if not remaining:
        return (
            SlabResult(statuses, objectives, ys, iterations, warm, bases),
            seed,
        )

    cold_set: list[int] = []
    if (
        seed is None
        or len(seed) != m
        or any(col < 0 or col >= n for col in seed)
    ):
        cold_set = remaining
        remaining = []

    # -- warm wave: shared factorization, batched dual repair + primal ----
    if remaining:
        basis_matrix = a[:, seed]
        rows = None
        try:
            rows = np.linalg.solve(basis_matrix, a)
        except np.linalg.LinAlgError:
            pass
        if rows is None or not np.all(np.isfinite(rows)):
            cold_set = remaining
            remaining = []
    if remaining:
        widx = np.array(remaining, dtype=np.int64)
        W = len(widx)
        RHS = np.empty((W, m))
        for i, k in enumerate(widx):
            RHS[i] = np.linalg.solve(basis_matrix, B[k])
        finite = np.isfinite(RHS).all(axis=1)

        if C is None:
            c_basis = sf.c[seed]
            cost_row = sf.c - c_basis @ rows
            COST = np.tile(cost_row, (W, 1))
            OBJ = np.empty(W)
            for i in range(W):
                OBJ[i] = -float(c_basis @ RHS[i])
        else:
            COST = np.empty((W, n))
            OBJ = np.empty(W)
            for i, k in enumerate(widx):
                ck = C[k]
                cbk = ck[seed]
                COST[i] = ck - cbk @ rows
                OBJ[i] = -float(cbk @ RHS[i])
        COST[:, seed] = 0.0

        T = np.empty((W, m + 1, n + 1))
        T[:, :m, :n] = rows
        T[:, :m, -1] = RHS
        T[:, -1, :n] = COST
        T[:, -1, -1] = OBJ
        basis_arr = np.tile(np.array(seed, dtype=np.int64), (W, 1))

        with np.errstate(invalid="ignore"):
            rhs_neg = RHS.min(axis=1) < -1e-7
            cost_neg = COST.min(axis=1) < -1e-7
        to_cold = ~finite | (finite & rhs_neg & cost_neg)
        dual_set = finite & rhs_neg & ~cost_neg
        primal_ready = finite & ~rhs_neg

        # dual-simplex repair in lockstep over the dual set
        dual_iters = np.zeros(W, dtype=np.int64)
        infeasible = np.zeros(W, dtype=bool)
        active = dual_set.copy()
        while active.any():
            idx = np.where(active)[0]
            capped = dual_iters[idx] >= cap
            if capped.any():
                to_cold[idx[capped]] = True
                active[idx[capped]] = False
                idx = idx[~capped]
                if idx.size == 0:
                    continue
            rhsv = T[idx, :m, -1]
            r = np.argmin(rhsv, axis=1)
            feas = rhsv[np.arange(len(idx)), r] >= -TOL
            if feas.any():
                primal_ready[idx[feas]] = True
                active[idx[feas]] = False
                idx = idx[~feas]
                r = r[~feas]
                if idx.size == 0:
                    continue
            rowv = T[idx, r, :n]
            elig = rowv < -TOL
            dead = ~elig.any(axis=1)
            if dead.any():
                infeasible[idx[dead]] = True
                active[idx[dead]] = False
                idx = idx[~dead]
                r = r[~dead]
                rowv = rowv[~dead]
                elig = elig[~dead]
                if idx.size == 0:
                    continue
            costs = T[idx, -1, :n]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(elig, costs / -rowv, np.inf)
            e = np.argmin(ratios, axis=1)
            _batched_pivot(T, idx, r, e)
            basis_arr[idx, r] = e
            dual_iters[idx] += 1

        for i in np.where(infeasible)[0]:
            k = int(widx[i])
            statuses[k] = SolveStatus.INFEASIBLE
            iterations[k] = dual_iters[i]
            warm[k] = True

        pr = np.where(primal_ready)[0]
        if pr.size:
            T[pr, :m, -1] = np.maximum(T[pr, :m, -1], 0.0)
            pstat, p_iters = _batched_primal(
                T, basis_arr, pr, cap - dual_iters, n
            )
            limit = pr[pstat[pr] == 2]
            to_cold[limit] = True
            unb = pr[pstat[pr] == 1]
            for i in unb:
                k = int(widx[i])
                statuses[k] = SolveStatus.UNBOUNDED
                iterations[k] = dual_iters[i] + p_iters[i]
                warm[k] = True
            opt = pr[pstat[pr] == 0]
            if opt.size:
                Y = _extract_batch(T, basis_arr, opt, n)
                for j, i in enumerate(opt):
                    k = int(widx[i])
                    ck = sf.c if C is None else C[k]
                    statuses[k] = SolveStatus.OPTIMAL
                    objectives[k] = float(ck @ Y[j])
                    ys[k] = Y[j]
                    iterations[k] = dual_iters[i] + p_iters[i]
                    warm[k] = True
                    bases[k] = [int(col) for col in basis_arr[i]]
        cold_set = cold_set + [int(widx[i]) for i in np.where(to_cold)[0]]

    # -- cold wave: batched slack-basis start where the structure allows --
    if cold_set:
        cold_set = sorted(cold_set)
        ns = sf.num_structural
        shortcut = (
            m > 0
            and m == sf.num_slack
            and n == ns + m
            and bool(np.all(a[np.arange(m), ns + np.arange(m)] == 1.0))
        )
        tensor_cold: list[int] = []
        for k in cold_set:
            if shortcut and not np.any(B[k] < 0):
                tensor_cold.append(k)
            else:
                record_result(k, cold_python(k), False)
        if tensor_cold:
            cidx = np.array(tensor_cold, dtype=np.int64)
            Wc = len(cidx)
            T = np.empty((Wc, m + 1, n + 1))
            T[:, :m, :n] = a
            T[:, :m, -1] = B[cidx]
            T[:, -1, -1] = 0.0
            if C is None:
                T[:, -1, :n] = sf.c
                if np.any(sf.c[ns:] != 0.0):
                    c_basis = sf.c[ns:]
                    T[:, -1, :n] -= c_basis @ a
                    for i, k in enumerate(cidx):
                        T[i, -1, -1] = -float(c_basis @ B[k])
            else:
                T[:, -1, :n] = C[cidx]
                for i, k in enumerate(cidx):
                    ck = C[k]
                    if np.any(ck[ns:] != 0.0):
                        T[i, -1, :n] -= ck[ns:] @ a
                        T[i, -1, -1] = -float(ck[ns:] @ B[k])
            basis_arr = np.tile(np.arange(ns, ns + m, dtype=np.int64), (Wc, 1))
            caps = np.full(Wc, cap, dtype=np.int64)
            pstat, p_iters = _batched_primal(
                T, basis_arr, np.arange(Wc), caps, n
            )
            code_to_status = {
                0: SolveStatus.OPTIMAL,
                1: SolveStatus.UNBOUNDED,
                2: SolveStatus.ITERATION_LIMIT,
            }
            opt = np.where(pstat == 0)[0]
            Y = _extract_batch(T, basis_arr, opt, n) if opt.size else None
            opt_pos = {int(i): j for j, i in enumerate(opt)}
            for i, k in enumerate(cidx):
                k = int(k)
                statuses[k] = code_to_status[int(pstat[i])]
                iterations[k] = p_iters[i]
                if i in opt_pos:
                    j = opt_pos[i]
                    ck = sf.c if C is None else C[k]
                    objectives[k] = float(ck @ Y[j])
                    ys[k] = Y[j]
                    bases[k] = [int(col) for col in basis_arr[i]]

    return (
        SlabResult(statuses, objectives, ys, iterations, warm, bases),
        seed,
    )
