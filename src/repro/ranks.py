"""Exact rank tests: Wilcoxon signed-rank, Kendall's tau-b, Mann-Whitney U.

These are the three tests the pipeline runs: the significance checker's
one-sided signed-rank test (§5.2) and the generalizer's Kendall and
Mann-Whitney checks (§5.4). Each takes the branch that SciPy 1.17's
``wilcoxon``, ``kendalltau`` and ``mannwhitneyu`` take with
``method="auto"``, so every verdict matches SciPy's; the test suite
checks it against those SciPy functions, which the package never imports.
Where SciPy enumerates or sums a null distribution in floating point,
the nulls here are counted in integers:

=============  ==========================================  ====================
test           exact branch                                null counted as
=============  ==========================================  ====================
signed-rank    n <= 50 with no ties and no zeros, or        subsets of doubled
               n <= 13 (n counts the zeros)                 midranks by sum
Kendall tau-b  no ties, and n <= 33 or at most one          Mahonian numbers
               discordant (or concordant) pair
Mann-Whitney   no ties and min(n1, n2) <= 8                 Gaussian binomial
=============  ==========================================  ====================

Every other case uses SciPy's normal approximation with its tie
corrections, and the tail from :func:`normal_sf`.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

_SQRT_HALF = math.sqrt(0.5)


def normal_sf(z: float) -> float:
    """Upper tail ``P(Z > z)`` of the standard normal distribution.

    Scales ``z`` by the rounded constant ``1/sqrt(2)``, as SciPy's
    ``ndtr`` does: deep in the tail the p-value's relative error grows
    with ``z**2`` times the argument's, so dividing by ``sqrt(2)``
    instead drifts about 4e-13 from SciPy at ``z = 37``; this form stays
    within 6e-14 over ``[-8, 37]``.
    """
    return 0.5 * math.erfc(z * _SQRT_HALF)


def signed_rank_greater(differences: np.ndarray) -> tuple[float, float]:
    """One-sided Wilcoxon signed-rank test that ``differences`` exceed 0.

    Zeros are dropped (Wilcoxon's method). Returns the statistic ``R+``,
    the rank sum of the positive differences, and its p-value. With no
    nonzero difference there is no evidence: ``(0.0, 1.0)``.
    """
    d = np.asarray(differences, dtype=float).ravel()
    if np.isnan(d).any():
        return math.nan, math.nan
    nonzero = d[d != 0]
    m = nonzero.size
    if m == 0:
        return 0.0, 1.0
    ranks, ties = _doubled_midranks(np.abs(nonzero))
    r_plus2 = int(ranks[nonzero > 0].sum())
    r_plus = r_plus2 / 2
    if d.size <= 50 and (d.size <= 13 or (m == d.size and ties.max() == 1)):
        # Every sign pattern of the nonzero differences is equally likely;
        # flipping a zero changes nothing, so it cancels from the ratio.
        return r_plus, _subsets_reaching(ranks, r_plus2) / 2**m
    count = float(m)
    mean = count * (count + 1.0) * 0.25
    var = count * (count + 1.0) * (2.0 * count + 1.0)
    tie_term = float((ties**3 - ties).sum())
    se = math.sqrt((var - tie_term / 2) / 24)
    return r_plus, normal_sf((r_plus - mean) / se)


def kendall_tau_b(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Kendall's tau-b of ``x`` and ``y`` with its two-sided p-value.

    ``(nan, nan)`` when either input holds a NaN or is constant.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan, math.nan
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    new_x = np.r_[True, xs[1:] != xs[:-1]]
    new_pair = new_x | np.r_[True, ys[1:] != ys[:-1]]
    _, y_dense, y_sizes = np.unique(
        ys, return_inverse=True, return_counts=True
    )
    xtie, x0, x1 = _tie_terms(_run_lengths(new_x))
    ytie, y0, y1 = _tie_terms(y_sizes)
    ntie = _tie_terms(_run_lengths(new_pair))[0]
    tot = n * (n - 1) // 2
    if xtie == tot or ytie == tot:
        return math.nan, math.nan
    # Sorted by x, then y: a pair is discordant iff its y values invert.
    dis = _inversions(y_dense)
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    tau = min(1.0, max(-1.0, tau))
    if xtie == 0 and ytie == 0 and (n <= 33 or min(dis, tot - dis) <= 1):
        return tau, _kendall_exact(n, dis)
    m = n * (n - 1.0)
    var = (
        (m * (2 * n + 5) - x1 - y1) / 18
        + (2 * xtie * ytie) / m
        + x0 * y0 / (9 * m * (n - 2))
    )
    return tau, 2 * normal_sf(abs(con_minus_dis / math.sqrt(var)))


def mann_whitney_u(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mann-Whitney U of ``x`` against ``y`` with its two-sided p-value.

    The normal approximation carries the continuity correction. Raises
    ``ValueError`` on an empty sample or a NaN.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("samples must not contain NaN")
    n1, n2 = x.size, y.size
    ranks, ties = _doubled_midranks(np.concatenate([x, y]))
    u1 = int(ranks[:n1].sum()) / 2 - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    if min(n1, n2) <= 8 and ties.max() == 1:
        small, large = min(n1, n2), max(n1, n2)
        tail = sum(_gaussian_binomial_head(small, large, n1 * n2 - int(u)))
        return u1, min(1.0, 2 * tail / math.comb(n1 + n2, n1))
    n = n1 + n2
    tie_term = float((ties**3 - ties).sum())
    s = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    if s == 0:
        return u1, 1.0  # every value tied
    z = (u - n1 * n2 / 2 - 0.5) / s
    return u1, min(1.0, 2 * normal_sf(z))


def _doubled_midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twice the average ranks of ``values`` (integers), and tie-group sizes.

    A group of ``t`` equal values after ``s`` smaller ones holds ranks
    ``s + 1 .. s + t``; twice their mean is ``2s + t + 1``.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[first, values.size])
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.repeat(2 * first + sizes + 1, sizes)
    return ranks, sizes


def _run_lengths(starts: np.ndarray) -> np.ndarray:
    """Lengths of the runs whose first elements ``starts`` marks."""
    return np.diff(np.r_[np.flatnonzero(starts), starts.size])


def _tie_terms(sizes: np.ndarray) -> tuple[int, int, int]:
    """Kendall's tie sums: pairs tied, and the two variance corrections."""
    t = sizes.astype(np.int64)
    return (
        int((t * (t - 1) // 2).sum()),
        int((t * (t - 1) * (t - 2)).sum()),
        int((t * (t - 1) * (2 * t + 5)).sum()),
    )


def _subsets_reaching(weights: np.ndarray, target: int) -> int:
    """How many subsets of the positive integer ``weights`` sum to >= target.

    A subset-sum count, O(len(weights) * sum(weights)); the counts fit in
    int64 because the counted branches have at most 50 weights.
    """
    counts = np.zeros(int(weights.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for w in weights:
        counts[w:] = counts[w:] + counts[:-w]
    return int(counts[target:].sum())


def _inversions(a: np.ndarray) -> int:
    """Pairs ``i < j`` with ``a[i] > a[j]``, for non-negative integers ``a``.

    One radix pass per bit, from the top: a pair inverts at the highest
    bit where its values differ, so within each group of values equal
    above that bit it counts once per 1-bit standing before a 0-bit. The
    pass then moves each group's 0-bits stably ahead of its 1-bits, which
    keeps the next bit's groups contiguous: O(n) per bit, O(n log n) in
    all for dense ranks.
    """
    a = np.asarray(a, dtype=np.int64)
    position = np.arange(a.size)
    total = 0
    for bit in range(int(a.max(initial=0)).bit_length() - 1, -1, -1):
        ones = (a >> bit) & 1
        group = a >> (bit + 1)
        first = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        sizes = np.diff(np.r_[first, a.size])
        start = np.repeat(first, sizes)
        ones_before = np.cumsum(ones) - ones
        ones_before -= np.repeat(ones_before[first], sizes)
        total += int(ones_before[ones == 0].sum())
        zeros = np.repeat(sizes - np.add.reduceat(ones, first), sizes)
        target = np.where(
            ones == 0, position - ones_before, start + zeros + ones_before
        )
        moved = np.empty_like(a)
        moved[target] = a
        a = moved
    return total


def _kendall_exact(n: int, discordant: int) -> float:
    """Two-sided exact p-value of Kendall's tau for ``n`` untied pairs.

    Under the null every ordering is equally likely, and the Mahonian
    number ``M(n, k)`` counts the permutations with ``k`` inversions: the
    p-value is twice the tail mass up to the nearer of the discordant and
    concordant counts, capped at 1.
    """
    c = min(discordant, n * (n - 1) // 2 - discordant)
    counts = [1] + [0] * c
    for j in range(2, n + 1):  # times 1 + q + ... + q^(j-1)
        counts = list(accumulate(counts))
        if j <= c:
            counts[j:] = [a - b for a, b in zip(counts[j:], counts)]
    return min(1.0, 2 * sum(counts) / math.factorial(n))


def _gaussian_binomial_head(m: int, n: int, k: int) -> list[int]:
    """Coefficients of ``q^0 .. q^k`` in the Gaussian binomial ``[m+n, m]_q``.

    Coefficient ``u`` counts the orderings of ``m`` values among ``n``
    others with Mann-Whitney statistic ``u``. Built from the product
    ``prod_{i=1..m} (1 - q^(n+i)) / (1 - q^i)``, truncated at degree k.
    """
    coeffs = [1] + [0] * k
    for i in range(1, m + 1):
        shift = n + i
        if shift <= k:
            coeffs[shift:] = [a - b for a, b in zip(coeffs[shift:], coeffs)]
        for r in range(min(i, k + 1)):  # divide by 1 - q^i
            coeffs[r::i] = list(accumulate(coeffs[r::i]))
    return coeffs
