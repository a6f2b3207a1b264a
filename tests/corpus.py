"""Seeded random instance generators shared across the test suite."""

from __future__ import annotations

import random

import numpy as np

from emaxflow import DirectedNetwork, SymmetrizedNetwork


def random_network(
    seed: int,
    n_max: int = 12,
    m_max: int = 30,
    cap_max: int = 5,
    n_min: int = 2,
) -> DirectedNetwork:
    """Uniform random digraph: n in [n_min, n_max], arcs sampled without
    replacement over ordered pairs, integer capacities in [1, cap_max]."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    m = rng.randint(0, min(m_max, n * (n - 1)))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.sample(pairs, m)
    arcs = [(u, v, rng.randint(1, cap_max)) for u, v in chosen]
    return DirectedNetwork(n, arcs, source=0, sink=n - 1)


def nonempty_network(seed: int, **kwargs) -> DirectedNetwork:
    """Like `random_network` but guaranteed at least one arc (and therefore
    an s-t connected symmetrization)."""
    while True:
        net = random_network(seed, **kwargs)
        if net.edge_count >= 1:
            return net
        seed += 100_003


def random_sized_network(seed: int, n: int, m: int, cap_max: int = 100) -> DirectedNetwork:
    """Random digraph with exactly n vertices and m distinct arcs."""
    rng = random.Random(seed)
    limit = n * (n - 1)
    if m > limit:
        raise ValueError("too many arcs requested")
    pairs = set()
    while len(pairs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    arcs = [(u, v, rng.randint(1, cap_max)) for u, v in sorted(pairs)]
    return DirectedNetwork(n, arcs, source=0, sink=n - 1)


def grid_network(seed: int, rows: int, cols: int, cap_max: int = 100) -> DirectedNetwork:
    """Directed grid: row arcs point forward, column arcs go both ways, the
    source feeds the first column and the last column feeds the sink at
    capacity ``cap_max``; grid capacities in [1, cap_max]."""
    rng = random.Random(seed)
    s, t = 0, rows * cols + 1

    def cell(i: int, j: int) -> int:
        return 1 + i * cols + j

    arcs = []
    for i in range(rows):
        arcs += [(s, cell(i, 0), cap_max), (cell(i, cols - 1), t, cap_max)]
        arcs += [(cell(i, j), cell(i, j + 1), rng.randint(1, cap_max)) for j in range(cols - 1)]
    for i in range(rows - 1):
        for j in range(cols):
            arcs.append((cell(i, j), cell(i + 1, j), rng.randint(1, cap_max)))
            arcs.append((cell(i + 1, j), cell(i, j), rng.randint(1, cap_max)))
    return DirectedNetwork(t + 1, arcs, source=s, sink=t)


def criterion6_corpus() -> list[tuple[int, int, int]]:
    """The (seed, n, m) of the 50 instances of acceptance criterion 6, up
    to n = 200 and m = 2,000.  Instance i is
    ``random_sized_network(1_000 + seed, n, m)``, solved at eps 0.1 when i
    is even and 0.25 when it is odd."""
    specs = []
    rng_sizes = [
        (20, 8, 30, 1, 4),      # count, n_lo, n_hi, m_lo_mult, m_hi_mult
        (15, 30, 80, 2, 8),
        (10, 80, 150, 3, 8),
        (5, 150, 200, 4, 10),
    ]
    seed = 0
    for count, n_lo, n_hi, m_lo, m_hi in rng_sizes:
        for _ in range(count):
            rng = random.Random(9000 + seed)
            n = rng.randint(n_lo, n_hi)
            m = min(rng.randint(m_lo * n, m_hi * n), 2000, n * (n - 1))
            specs.append((seed, n, m))
            seed += 1
    return specs


def reduction_corpus(count: int = 200):
    """The n<=12, m<=30, caps<=5 corpus used by several acceptance checks."""
    return [random_network(seed) for seed in range(count)]


def multigraph(seed: int) -> SymmetrizedNetwork:
    """A `SymmetrizedNetwork` built directly on random endpoints, so that it
    has parallel edges and self-loops, and its sink may be unreachable."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    m = int(rng.integers(0, 30))
    return multigraph_on(n, rng.integers(0, n, m), rng.integers(0, n, m))


def multigraph_on(n: int, tails: np.ndarray, heads: np.ndarray) -> SymmetrizedNetwork:
    """A `SymmetrizedNetwork` on ``n`` vertices, source 0 and sink n - 1,
    whose edge k joins ``tails[k]`` to ``heads[k]``, each of capacity 1."""
    return SymmetrizedNetwork(n, 0, n - 1, 0.25, tails, heads, np.ones(len(tails)))
