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

The forward pass computes the same Theta(C * N * L^3) cells as an argmax
over l' would, in a cache-friendlier order.  For each pinned l0 and tile n
it walks the budget axis in blocks of _BLOCK columns.  Within a block, level
0 (always free) seeds the running maximum for every conditioned l at once;
each higher l' then adds its gains to the shifted previous layer and takes
over wherever it is strictly greater, writing its index into the parents
table.  A strict running maximum keeps the first maximum, exactly as argmax
does, and every value is still the same single sum, so values and selections
are bit-identical to a first-maximum argmax over l'.  A block's working set
(candidates, running maximum, mask and parents, about 19 B per level and
column) stays in L2.

Ties are broken deterministically: the lowest level wins at the current
tile, then the lowest pinned level l0.  Over a whole selection this prefers
the lexicographically smallest vector in the order
(levels[0], levels[N-1], levels[N-2], ..., levels[1]).
"""

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

# bytes of int16 argmax table; admits N=24, six levels, C=400k (0.90 GB)
PARENTS_TABLE_LIMIT = 1 << 30

_CHUNK = 1 << 18

# budget columns per forward-pass block; 8192 keeps a block's working set in L2
_BLOCK = 8192


@dataclass(frozen=True)
class SolveStats:
    """Work accounting for one solver run."""

    subproblems: int


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the chosen selection, its value, run stats, per-capacity selections."""

    selection: Selection
    value: float
    method: str
    stats: SolveStats
    selections: tuple[Selection, ...] = ()


def _gains(inst: Instance) -> np.ndarray:
    """gains[n, cur, l]: tile n's objective term at level cur when tile n+1 (mod N) is at l.

    The term is (1-beta) p_n u(cur) - beta (p_n + p_{n+1})/2 |u(cur) - u(l)|, so
    the terms of a ring assignment add up to its objective value.
    """
    p = inst.probs
    u = inst.utility_table
    expect_w = (1.0 - inst.beta) * p
    edge_w = inst.beta * 0.5 * (p + np.roll(p, -1))
    return (expect_w[:, None, None] * u[:, :, None]
            - edge_w[:, None, None] * np.abs(u[:, :, None] - np.roll(u, -1, axis=0)[:, None, :]))


def _check_parents_table(n_levels: int, n_tiles: int, capacity: int) -> None:
    """Refuse an int16 parents table over PARENTS_TABLE_LIMIT; n_levels counts level 0.

    The table covers tiles 1..N-1: tile 0's level is the pinned l0.
    """
    table_bytes = n_levels * n_levels * (n_tiles - 1) * (capacity + 1) * 2
    if table_bytes > PARENTS_TABLE_LIMIT:
        raise ValueError(f"DP parents table needs {table_bytes} bytes, over {PARENTS_TABLE_LIMIT}")


def _dp_run(inst: Instance, columns):
    grid_n = inst.grid.n_tiles
    sizes = inst.size_table
    n_levels = sizes.shape[1]
    cap = inst.capacity

    _check_parents_table(n_levels, grid_n, cap)
    # parents[l0, n - 1, l, c]: tile n's level given l0 at tile 0 and l at tile n+1;
    # zeros, because level 0 seeds the running maximum
    parents = np.zeros((n_levels, grid_n - 1, n_levels, cap + 1), dtype=np.int16)
    layer = np.empty((n_levels, cap + 1))
    nxt = np.empty_like(layer)
    width = min(_BLOCK, cap + 1)
    cand = np.empty((n_levels, width))
    better = np.empty((n_levels, width), dtype=bool)

    # final[l0, k]: best ring value with tile 0 at l0 within budget columns[k]
    final = np.empty((n_levels, len(columns)))
    gains = _gains(inst)
    for l0 in range(n_levels):
        layer.fill(-np.inf)
        layer[:, sizes[0, l0]:] = gains[0, l0, :, None]
        for n in range(1, grid_n):
            for lo in range(0, cap + 1, _BLOCK):
                hi = min(lo + _BLOCK, cap + 1)
                best = nxt[:, lo:hi]
                arg = parents[l0, n - 1, :, lo:hi]
                # level 0 is free (an Instance invariant), so it seeds every column
                np.add(gains[n, 0, :, None], layer[0, lo:hi], out=best)
                for cur in range(1, n_levels):
                    b = int(sizes[n, cur])
                    start = max(lo, b)
                    if start >= hi:
                        continue
                    w = hi - start
                    np.add(gains[n, cur, :, None], layer[cur, start - b:hi - b], out=cand[:, :w])
                    np.greater(cand[:, :w], best[:, start - lo:], out=better[:, :w])
                    np.copyto(best[:, start - lo:], cand[:, :w], where=better[:, :w])
                    np.copyto(arg[:, start - lo:], cur, where=better[:, :w])
            layer, nxt = nxt, layer
        final[l0] = layer[l0, columns]

    selections = []
    for k, c in enumerate(columns):
        # the first maximum is the lowest l0, the documented tie-break
        best_l0 = int(np.argmax(final[:, k]))
        levels = [best_l0] * grid_n
        l = best_l0
        for n in range(grid_n - 1, 0, -1):
            l = int(parents[best_l0, n - 1, l, c])
            levels[n] = l
            c -= int(sizes[n, l])
        selections.append(Selection(tuple(levels), float(final[best_l0, k])))
    return selections


def solve_dp(inst: Instance, capacities=None) -> SolveReport:
    """Exact ring DP; see the module docstring for the recursion.

    The pass at ``inst.capacity`` also answers each smaller budget in ``capacities``,
    read off the same table into ``report.selections`` in the given order.
    """
    caps = _as_nonneg_ints([] if capacities is None else capacities, "capacity", ndim=1)
    if np.any(caps > inst.capacity):
        raise ValueError(f"capacity must not exceed the instance capacity {inst.capacity}")
    top, *rest = _dp_run(inst, [inst.capacity, *caps])
    width = inst.ladder.n_levels + 1
    count = width * width * inst.grid.n_tiles * (inst.capacity + 1)
    return SolveReport(top, top.value, "dp", SolveStats(count), tuple(rest))


def brute_force(inst: Instance) -> SolveReport:
    """Exhaustive reference solver.

    Enumerates all (L+1)^N assignments (refusing above BRUTE_FORCE_LIMIT) in
    the DP's tie order: lexicographically in (levels[0], levels[N-1], ...,
    levels[1]).  The first feasible maximum met is kept, so exact value ties
    resolve to the same selection as the DP's.
    """
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
    best_levels = None
    for lo in range(0, total, _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, total))
        digits = np.unravel_index(flat, shape)
        # tile n's level is digit -n mod N, most significant first; stacked row-major,
        # since the matrix-vector products below sum in another order on other layouts
        levels = np.stack([digits[-n % grid_n] for n in range(grid_n)], axis=1)
        u_sel = utility[cols[None, :], levels]
        expected = u_sel @ p
        penalty = np.abs(u_sel - u_sel[:, (cols + 1) % grid_n]) @ edge_unit
        value = (1.0 - inst.beta) * expected - inst.beta * penalty
        spend = sizes[cols[None, :], levels].sum(axis=1)
        value[spend > inst.capacity] = -np.inf
        first = int(np.argmax(value))
        if value[first] > best_value:
            best_value = value[first]
            best_levels = levels[first]
    if best_levels is None:
        raise ValueError("no feasible assignment")
    return SolveReport(Selection(tuple(int(x) for x in best_levels), float(best_value)),
                       float(best_value), "brute_force", SolveStats(total))


def solve_mckp(inst: Instance) -> SolveReport:
    """Multiple-choice knapsack specialization for beta = 0.

    With the penalty off, tiles decouple and a plain one-pass knapsack over
    tiles suffices.  The arithmetic mirrors the ring DP term for term, so on
    the same instance both return bit-identical values.
    """
    if inst.beta != 0.0:
        raise ValueError("the knapsack form requires beta = 0")
    grid_n = inst.grid.n_tiles
    sizes = inst.size_table
    n_levels = sizes.shape[1]
    cap = inst.capacity
    # beta = 0 zeroes the neighbor term, so tile n+1 at level 0 stands for any level
    gains = _gains(inst)[:, :, 0]

    parents = np.empty((grid_n, cap + 1), dtype=np.int16)
    money = np.zeros(cap + 1)
    for n in range(grid_n):
        shifted = np.full((n_levels, cap + 1), -np.inf)
        for cur in range(n_levels):
            b = sizes[n, cur]
            if b <= cap:
                shifted[cur, b:] = money[: cap + 1 - b]
        cand = gains[n, :, None] + shifted
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
    return SolveReport(Selection(tuple(int(x) for x in levels), value), value, "mckp",
                       SolveStats(grid_n * (cap + 1)))
