"""Optimal level selection for one planning slot.

Choosing one ladder level per tile under a capacity budget is a multiple-
choice knapsack, NP-hard in general, but the smoothness penalty only couples
tiles that are adjacent on the yaw ring.  Conditioning on the level of tile 0
breaks the ring into a chain, which admits an exact dynamic program:

    DP(l0, l, n, c) = best value of tiles 0..n when tile 0 is pinned at l0,
                      tile n+1 is conditioned at level l, and tiles 1..n
                      consume at most c, for c up to C - b[0, l0].

The recursion maximizes over tile n's level l', pairing u(q[n, l']) with the
conditioned neighbor u(q[n+1, l]); the answer is max over l of
DP(l, l, N-1, C - b[0, l]), which closes the ring.  So each pin runs on the
budget tile 0 leaves it, every entry is finite, and a pin that cannot pay for
tile 0 runs nothing.  The pinned levels run one after another, in two passes.
At beta = 0 the neighbor term is 0.0 * |u - u'|, so all L+1 conditioned rows
are bitwise equal and both passes carry one row.

Pass 1 runs every paying pin on exact Pareto frontiers, the list DP of
Nemhauser & Ullmann (1969; Kellerer, Pferschy & Pisinger 2004, ch. 11).
DP(l0, l, n, .) is a step function of c with a few hundred steps on workload
sizes, so each conditioned row keeps only its strictly improving (cost, value)
points, all rows of a pin in one flat array.  To move to tile n, each level l'
shifts the points of the row it reads by b[n, l'] and drops those over the
room; a stable sort orders these candidates by cost, and each gets the value
gains[n, l', l] + value for every conditioned l.  A running maximum down the
cost axis keeps a cost group only where its maximum strictly beats every
cheaper candidate, and the kept points, regrouped by row, are the new rows.
A pin's value at column c is that of the last point of its row costing at
most c.  Each requested budget's winner is the first pin whose value there
is strictly greater.  Pass 1 computes (candidates) x (rows) sums per tile
instead of (C+1) x (L+1) x (rows) cells.  In the worst case a row holds room+1
points, so a tile has at most (L+1)(room+1) candidates and the sums reach the
dense count: the time stays within a constant factor of the dense pass's (a
sort and a running maximum per candidate, no second path).

The frontier's values are the dense DP's own sums.  The dense cell (l, c) is
the maximum over l' of fl(g + x) with g = gains[n, l', l] and x the best
value of the row l' reads at budget c - b[n, l'].  Rounding is monotone, so
fl(g + x) is nondecreasing in x: the best sum over the points that fit is
the sum with the best point, and that is the maximum the frontier keeps at c.
Dropping a point that a cheaper one dominates never drops a maximum.  So pass
1 picks the winners a dense pass would pick.

Pass 2 runs each distinct winning pin again, densely, up to the largest budget
it wins, with an argmax table over tiles 1..N-1, and backtracks every budget it
wins; its value layers and table are sized to that room.  The DP is causal in
c, so the shorter run gives the same values, and the reported value and
selection come from pass 2: (room + 1) * (N-1) * (L+1) * rows cells per
winning pin.  It walks its budget axis in blocks of _BLOCK columns.  Within a
block, level 0 (always free) seeds the running maximum for every conditioned l
at once; each higher l' then adds its gains to the shifted previous layer and
takes over only where it is strictly greater, writing its index into the
parents table.  A strict running maximum keeps the first maximum, exactly as
argmax does, and every value is still the same single sum, so values and
selections are bit-identical to a first-maximum argmax over l'.  The two
passes' maxima can differ only in the sign of a zero (gains are -0.0 where
p_n = 0 and u < 0), which compares equal, so the winners stand.  A block's
working set (candidates, running maximum, mask and parents, about 19 B per
level and column) stays in L2.

Ties are broken deterministically: the lowest level wins at the current
tile, then the lowest pinned level l0.  Over a whole selection this prefers
the lexicographically smallest vector in the order
(levels[0], levels[N-1], levels[N-2], ..., levels[1]).
"""

from dataclasses import dataclass

import numpy as np

from .model import Instance, Selection, _as_nonneg_ints, _objective

__all__ = [
    "SolveStats",
    "SolveReport",
    "solve_dp",
    "brute_force",
    "solve_mckp",
]

BRUTE_FORCE_LIMIT = 10_000_000

# bytes of the int16 argmax tables of all L+1 pins plus the two float64 value layers,
# a bound on work as well as memory (pass 2 holds one pin's table); admits N=24, six
# levels, C=400k (0.95 GB, of which at most 0.17 GB is held)
DP_BYTES_LIMIT = 1 << 30

_CHUNK = 1 << 18

# budget columns per forward-pass block; 8192 keeps a block's working set in L2
_BLOCK = 8192


@dataclass(frozen=True)
class SolveStats:
    """Work accounting for one solver run."""

    subproblems: int


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the chosen selection, run stats, per-capacity selections."""

    selection: Selection
    method: str
    stats: SolveStats
    selections: tuple[Selection, ...] = ()

    @property
    def value(self) -> float:
        return self.selection.value


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


def _check_dp_bytes(n_levels: int, n_tiles: int, capacity: int) -> None:
    """Refuse a DP whose parents tables over all pins plus value layers exceed DP_BYTES_LIMIT.

    n_levels counts level 0.  Each pin's int16 table covers tiles 1..N-1 (tile 0 is
    pinned at l0); the two float64 layers hold n_levels rows.  The n_levels tables at
    the full C bound a solve's work; pass 2 holds one, for the budgets its pin wins,
    and pass 1's frontiers stay within the same count (see _frontier).
    """
    dp_bytes = n_levels * (capacity + 1) * (2 * n_levels * (n_tiles - 1) + 16)
    if dp_bytes > DP_BYTES_LIMIT:
        raise ValueError(f"DP tables and layers need {dp_bytes} bytes, over {DP_BYTES_LIMIT}")


def _frontier(gains, sizes, l0, room):
    """Pin l0's value curve on the budget columns 0..room: the (costs, values) of its row.

    Every conditioned row's strictly improving points sit in one flat array, sorted
    by key = row * (room+1) + cost; a level reads row min(level, rows-1), and the
    last tile computes only the row the pin reads, min(l0, rows-1).

    Memory, bounded before anything is gathered: a row holds at most room+1 points of
    16 B (an int64 key and a float64 value).  A tile gathers at most _BLOCK candidates
    at a time: all of them when the rows it reads hold that few, else windows of
    _BLOCK // (L+1) columns, each carrying the running maximum into the next, whose
    kept points are sorted back into rows at the end.  So past one block's working set
    (like the dense kernel's, _BLOCK candidates by rows) a tile holds at most 48 B per
    row and column: the old points, the windows' points, and their sorted copy.
    _check_dp_bytes counts 2 (L+1)(N-1) + 16 B per row and column, which covers that
    whenever (L+1)(N-1) >= 16; below that a row holds at most (L+1)^(N-1) <= 243
    points, one per selection of tiles 1..N-1.
    """
    n_tiles, n_levels = sizes.shape
    rows = gains.shape[2]
    span = room + 1
    levels = np.arange(n_levels)
    # each level's read row, as an offset into the keys
    base = np.minimum(levels, rows - 1) * span
    shift = sizes - base
    # tile 0 alone: one point per row, at cost 0
    key = np.arange(rows) * span
    value = gains[0, l0].copy()
    offsets = key[:, None]
    floor = np.full(rows, -np.inf)
    # where each level's read row starts, and where its points stop fitting after tile n
    whole = base + np.maximum(np.array([[0], [span]]) - sizes[:, None], 0)
    for n in range(1, n_tiles):
        out_rows = rows if n < n_tiles - 1 else 1
        g = gains[n] if n < n_tiles - 1 else gains[n, :, min(l0, rows - 1), None]
        top = floor[:out_rows]
        # the levels read each row at most n_levels - rows + 1 times
        width = span if key.size * (n_levels - rows + 1) <= _BLOCK else max(1, _BLOCK // n_levels)
        keys, values = [], []
        for lo in range(0, span, width):
            if width == span:
                window = whole[n]
            else:
                window = base + np.maximum(np.array([[lo], [min(lo + width, span)]]) - sizes[n], 0)
            starts, edges = np.searchsorted(key, window)
            counts = edges - starts
            ends = np.cumsum(counts)
            total = int(ends[-1])
            if total == 0:
                continue
            cur = np.repeat(levels, counts)
            idx = np.repeat(starts - ends + counts, counts)
            idx += np.arange(total)
            cost = key[idx] + shift[n, cur]
            order = np.argsort(cost, kind="stable")
            cost = cost[order]
            # the candidates' sums, after a first row that carries the running maximum
            cand = np.empty((total + 1, out_rows))
            cand[0] = top
            np.take(g, cur[order], axis=0, out=cand[1:])
            cand[1:] += value[idx[order], None]
            np.maximum.accumulate(cand, axis=0, out=cand)
            # the running maximum where each cost group ends; keep the strict rises
            last = np.empty(total + 1, dtype=bool)
            last[0] = last[-1] = True
            np.not_equal(cost[1:], cost[:-1], out=last[1:-1])
            best = cand[last]
            keep = (best[1:] > best[:-1]).T
            top = best[-1]
            keys.append((offsets[:out_rows] + cost[last[1:]])[keep])
            values.append(best[1:].T[keep])
        if len(keys) == 1:
            key, value = keys[0], values[0]
        else:
            key, value = np.concatenate(keys), np.concatenate(values)
            # drop the windows' pieces before the sort allocates its copy
            keys = values = None
            order = np.argsort(key)
            key, value = key[order], value[order]
    return key, value


def _forward(gains, sizes, l0, room, layers, parents):
    """Run pin l0's chain over tiles 1..N-1 on the budget columns 0..room; return its last layer.

    layers is a (2, rows, >= room+1) pair of value layers, used in turn; gains has
    ``rows`` conditioned rows (L+1, or 1 when every row is the same), and a read of
    conditioned row l reads row min(l, rows-1).  A level takes over only where it is
    strictly greater, and writes its index into parents[:, :, :room+1].
    """
    rows = gains.shape[2]
    layer, nxt = layers
    width = min(_BLOCK, room + 1)
    cand = np.empty((rows, width))
    better = np.empty((rows, width), dtype=bool)
    # zeros, because level 0 seeds the running maximum
    parents[:, :, :room + 1] = 0
    layer[:, :room + 1] = gains[0, l0, :, None]
    for n in range(1, sizes.shape[0]):
        for lo in range(0, room + 1, _BLOCK):
            hi = min(lo + _BLOCK, room + 1)
            top = nxt[:, lo:hi]
            # level 0 is free (an Instance invariant), so it seeds every column
            np.add(gains[n, 0, :, None], layer[0, lo:hi], out=top)
            for cur in range(1, sizes.shape[1]):
                b = int(sizes[n, cur])
                start = max(lo, b)
                if start >= hi:
                    continue
                w = hi - start
                np.add(gains[n, cur, :, None], layer[min(cur, rows - 1), start - b:hi - b],
                       out=cand[:, :w])
                np.greater(cand[:, :w], top[:, start - lo:], out=better[:, :w])
                np.copyto(top[:, start - lo:], cand[:, :w], where=better[:, :w])
                np.copyto(parents[n - 1, :, start:hi], cur, where=better[:, :w])
        layer, nxt = nxt, layer
    return layer


def solve_dp(inst: Instance, capacities=None) -> SolveReport:
    """Exact ring DP; see the module docstring for the recursion.

    The pass at ``inst.capacity`` also answers each smaller budget in ``capacities``,
    each backtracked from its winning pin's table into ``report.selections`` in
    the given order.
    """
    caps = _as_nonneg_ints([] if capacities is None else capacities, "capacity", ndim=1)
    cap = inst.capacity
    if np.any(caps > cap):
        raise ValueError(f"capacity must not exceed the instance capacity {cap}")
    columns = [cap, *caps.tolist()]
    grid_n = inst.grid.n_tiles
    sizes = inst.size_table
    n_levels = sizes.shape[1]

    _check_dp_bytes(n_levels, grid_n, cap)
    gains = _gains(inst)
    if inst.beta == 0.0:
        # x - 0.0 * y == x, so every conditioned row is the same: carry one
        gains = gains[:, :, :1]
    rows = gains.shape[2]

    # pass 1, on frontiers: winner[k] is the first pin strictly best at budget columns[k],
    # so an exact tie keeps the lowest l0, the documented tie-break; pin 0 pays for
    # every budget, since level 0 is free
    winner = [0] * len(columns)
    best = [-np.inf] * len(columns)
    for l0 in range(n_levels):
        paid = int(sizes[0, l0])
        if paid > cap:
            continue
        cost, value = _frontier(gains, sizes, l0, cap - paid)
        at = np.searchsorted(cost, np.subtract(columns, paid), side="right") - 1
        for k, i in enumerate(at.tolist()):
            if i >= 0 and value[i] > best[k]:
                winner[k], best[k] = l0, value[i]

    # pass 2: each winning pin again with parents, up to the largest budget it wins;
    # the DP is causal in c, so the shorter run gives the same values
    rooms = {}
    for l0, c in zip(winner, columns):
        rooms[l0] = max(rooms.get(l0, 0), c - int(sizes[0, l0]))
    width = max(rooms.values()) + 1
    layers = np.empty((2, rows, width))
    # parents[n - 1, l, j]: tile n's level given the pin at tile 0, l at tile n+1 and
    # j of the room tile 0 leaves; one table, reused by each winning pin in turn
    parents = np.empty((grid_n - 1, rows, width), dtype=np.int16)
    selections = [None] * len(columns)
    for l0, room in rooms.items():
        final = _forward(gains, sizes, l0, room, layers, parents)[min(l0, rows - 1)]
        for k in (k for k, w in enumerate(winner) if w == l0):
            c = columns[k] - int(sizes[0, l0])
            value = float(final[c])
            levels = [l0] * grid_n
            l = l0
            for n in range(grid_n - 1, 0, -1):
                l = int(parents[n - 1, min(l, rows - 1), c])
                levels[n] = l
                c -= int(sizes[n, l])
            selections[k] = Selection(tuple(levels), value)
    top, *rest = selections
    return SolveReport(top, "dp", SolveStats(n_levels * n_levels * grid_n * (cap + 1)), tuple(rest))


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
        value = _objective(utility[cols[None, :], levels], inst)
        spend = sizes[cols[None, :], levels].sum(axis=1)
        value[spend > inst.capacity] = -np.inf
        first = int(np.argmax(value))
        if value[first] > best_value:
            best_value = value[first]
            best_levels = levels[first]
    if best_levels is None:
        raise ValueError("no feasible assignment")
    return SolveReport(Selection(tuple(int(x) for x in best_levels), float(best_value)),
                       "brute_force", SolveStats(total))


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
    return SolveReport(Selection(tuple(int(x) for x in levels), float(money[cap])), "mckp",
                       SolveStats(grid_n * (cap + 1)))
