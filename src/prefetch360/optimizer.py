"""Optimal level selection for one planning slot.

Choosing one ladder level per tile under a capacity budget is a multiple-
choice knapsack, NP-hard in general, but the smoothness penalty only couples
tiles that are adjacent on the yaw ring.  Conditioning on the level of tile 0
breaks the ring into a chain, which admits an exact dynamic program:

    DP(l0, l, n, c) = best value of tiles 0..n when tile 0 is pinned at l0,
                      tile n+1 is conditioned at level l, and tiles 1..n
                      consumed at most c - b[0, l0] of the budget.

The recursion maximizes over tile n's level l', pairing u(q[n, l']) with the
conditioned neighbor u(q[n+1, l]); the answer is max over l of
DP(l, l, N-1, C), which closes the ring.  Entries that cannot pay for tile
0's reservation stay -inf, and that sentinel propagates to every state that
would overspend.  Runtime is Theta(C * N * L^3); the value table is rolled
over n while full argmax tables are kept for reconstruction.

Ties are broken deterministically: the lowest level wins at the current
tile, then the lowest pinned level l0.  Over a whole selection this prefers
the lexicographically smallest vector in the order
(levels[0], levels[N-1], levels[N-2], ..., levels[1]).
"""

import time
from dataclasses import dataclass

import numpy as np

from .model import Instance, Selection, _as_nonneg_ints

__all__ = [
    "SolveStats",
    "SolveReport",
    "solve_dp",
    "brute_force",
    "solve_mckp",
]

BRUTE_FORCE_LIMIT = 10_000_000

# bytes of int16 argmax table; admits N=24, six levels, C=400k (0.94 GB)
PARENTS_TABLE_LIMIT = 1 << 30

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SolveStats:
    """Work accounting for one solver run."""

    subproblems: int
    wall_time_s: float


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the chosen selection, its value, run stats, per-capacity selections."""

    selection: Selection
    value: float
    method: str
    stats: SolveStats
    selections: tuple[Selection, ...] = ()


def _weights(inst: Instance):
    p = inst.probs
    expect_w = (1.0 - inst.beta) * p
    edge_w = inst.beta * 0.5 * (p + np.roll(p, -1))
    return expect_w, edge_w


def _dp_run(inst: Instance, columns):
    grid_n = inst.grid.n_tiles
    utility = inst.utility_table
    sizes = inst.size_table
    n_levels = utility.shape[1]
    cap = inst.capacity
    expect_w, edge_w = _weights(inst)

    table_bytes = n_levels * n_levels * grid_n * (cap + 1) * 2
    if table_bytes > PARENTS_TABLE_LIMIT:
        raise ValueError(f"DP parents table needs {table_bytes} bytes, over {PARENTS_TABLE_LIMIT}")
    parents = np.full((n_levels, n_levels, grid_n, cap + 1), -1, dtype=np.int16)

    # final[l0, k]: best ring value with tile 0 at l0 within budget columns[k]
    final = np.empty((n_levels, len(columns)))
    for l0 in range(n_levels):
        base = expect_w[0] * utility[0, l0] - edge_w[0] * np.abs(utility[0, l0] - utility[1 % grid_n, :])
        feasible = np.arange(cap + 1) >= sizes[0, l0]
        layer = np.where(feasible[None, :], base[:, None], -np.inf)
        for n in range(1, grid_n):
            gains = (expect_w[n] * utility[n, :][:, None]
                     - edge_w[n] * np.abs(utility[n, :][:, None] - utility[(n + 1) % grid_n, :][None, :]))
            shifted = np.full((n_levels, cap + 1), -np.inf)
            for cur in range(n_levels):
                b = sizes[n, cur]
                if b <= cap:
                    shifted[cur, b:] = layer[cur, : cap + 1 - b]
            nxt_layer = np.empty((n_levels, cap + 1))
            for l in range(n_levels):
                cand = gains[:, l][:, None] + shifted
                arg = cand.argmax(axis=0)
                parents[l0, l, n, :] = arg
                nxt_layer[l, :] = np.take_along_axis(cand, arg[None, :], axis=0)[0]
            layer = nxt_layer
        final[l0] = layer[l0, columns]

    selections = []
    for k, c in enumerate(columns):
        # the first maximum is the lowest l0, the documented tie-break
        best_l0 = int(np.argmax(final[:, k]))
        levels = [best_l0] * grid_n
        l = best_l0
        for n in range(grid_n - 1, 0, -1):
            l = int(parents[best_l0, l, n, c])
            levels[n] = l
            c -= int(sizes[n, l])
        selections.append(Selection(tuple(levels), float(final[best_l0, k])))
    return selections


def solve_dp(inst: Instance, capacities=None) -> SolveReport:
    """Exact ring DP; see the module docstring for the recursion.

    The pass at ``inst.capacity`` also answers each smaller budget in ``capacities``,
    read off the same table into ``report.selections`` in the given order.
    """
    start = time.perf_counter()
    caps = _as_nonneg_ints([] if capacities is None else capacities, "capacity", ndim=1)
    if np.any(caps > inst.capacity):
        raise ValueError(f"capacity must not exceed the instance capacity {inst.capacity}")
    top, *rest = _dp_run(inst, [inst.capacity, *caps])
    elapsed = time.perf_counter() - start
    width = inst.ladder.n_levels + 1
    count = width * width * inst.grid.n_tiles * (inst.capacity + 1)
    return SolveReport(top, top.value, "dp", SolveStats(count, elapsed), tuple(rest))


def _tie_key(levels_row: np.ndarray) -> tuple:
    # significance order the DP reconstruction implies
    return (int(levels_row[0]), *(int(x) for x in levels_row[:0:-1]))


def brute_force(inst: Instance) -> SolveReport:
    """Exhaustive reference solver.

    Enumerates all (L+1)^N assignments (refusing above BRUTE_FORCE_LIMIT),
    keeps the feasible maximum, and breaks exact value ties with the same
    selection order as the DP.
    """
    start = time.perf_counter()
    grid_n = inst.grid.n_tiles
    utility = inst.utility_table
    sizes = inst.size_table
    n_levels = utility.shape[1]
    total = n_levels ** grid_n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(f"{total} assignments exceed the brute-force limit {BRUTE_FORCE_LIMIT}")
    p = inst.probs
    edge_unit = 0.5 * (p + np.roll(p, -1))
    shape = (n_levels,) * grid_n
    cols = np.arange(grid_n)
    best_value = -np.inf
    best_key = None
    best_levels = None
    for lo in range(0, total, _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, total))
        levels = np.stack(np.unravel_index(flat, shape), axis=1)
        u_sel = utility[cols[None, :], levels]
        expected = u_sel @ p
        penalty = np.abs(u_sel - u_sel[:, (cols + 1) % grid_n]) @ edge_unit
        value = (1.0 - inst.beta) * expected - inst.beta * penalty
        spend = sizes[cols[None, :], levels].sum(axis=1)
        value[spend > inst.capacity] = -np.inf
        vmax = value.max()
        if vmax == -np.inf or vmax < best_value:
            continue
        if vmax > best_value:
            best_value = vmax
            best_key = None
        ties = levels[value == vmax]
        order = np.lexsort(tuple(ties[:, j] for j in range(1, grid_n)) + (ties[:, 0],))
        key = _tie_key(ties[order[0]])
        if best_key is None or key < best_key:
            best_key = key
            best_levels = ties[order[0]]
    if best_levels is None:
        raise ValueError("no feasible assignment")
    elapsed = time.perf_counter() - start
    return SolveReport(Selection(tuple(int(x) for x in best_levels), float(best_value)),
                       float(best_value), "brute_force", SolveStats(total, elapsed))


def solve_mckp(inst: Instance) -> SolveReport:
    """Multiple-choice knapsack specialization for beta = 0.

    With the penalty off, tiles decouple and a plain one-pass knapsack over
    tiles suffices.  The arithmetic mirrors the ring DP term for term, so on
    the same instance both return bit-identical values.
    """
    if inst.beta != 0.0:
        raise ValueError("the knapsack form requires beta = 0")
    start = time.perf_counter()
    grid_n = inst.grid.n_tiles
    utility = inst.utility_table
    sizes = inst.size_table
    n_levels = utility.shape[1]
    cap = inst.capacity
    expect_w, edge_w = _weights(inst)

    parents = np.empty((grid_n, cap + 1), dtype=np.int16)
    money = np.zeros(cap + 1)
    for n in range(grid_n):
        gains = (expect_w[n] * utility[n, :]
                 - edge_w[n] * np.abs(utility[n, :] - utility[(n + 1) % grid_n, 0]))
        shifted = np.full((n_levels, cap + 1), -np.inf)
        for cur in range(n_levels):
            b = sizes[n, cur]
            if b <= cap:
                shifted[cur, b:] = money[: cap + 1 - b]
        cand = gains[:, None] + shifted
        arg = cand.argmax(axis=0)
        parents[n, :] = arg
        money = np.take_along_axis(cand, arg[None, :], axis=0)[0]

    levels = np.empty(grid_n, dtype=np.int64)
    c = cap
    for n in range(grid_n - 1, -1, -1):
        cur = int(parents[n, c])
        levels[n] = cur
        c -= int(sizes[n, cur])
    value = float(money[cap])
    elapsed = time.perf_counter() - start
    return SolveReport(Selection(tuple(int(x) for x in levels), value), value, "mckp",
                       SolveStats(grid_n * (cap + 1), elapsed))
