"""Seeded random instance generators shared across the test suite."""

from __future__ import annotations

import random

from emaxflow import DirectedNetwork


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


def reduction_corpus(count: int = 200):
    """The n<=12, m<=30, caps<=5 corpus used by several acceptance checks."""
    return [random_network(seed) for seed in range(count)]
