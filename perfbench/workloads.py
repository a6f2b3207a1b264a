"""Seeded workload instances, written as DIMACS max-flow text.

Each workload is a fixed corpus of max-flow problems (fixed draws of the
families below, capacities integers).  The benchmark seed renumbers the
vertices within each class of a problem's layout (source, interior or
left/right sides, sink) and shuffles the arc order, so every seed poses the
same problems to the program as different input files.  One seed always
gives byte-identical text.

Why not a fresh draw per seed: the cost of one solve varies about tenfold
between draws of one family (2,414 to 25,361 oracle calls over six draws of
a 40-vertex, 220-arc random digraph at eps 0.1), and a run has room for
only a few solves, so fresh draws would make every metric as wide as the
draw-to-draw spread.  Relabeled copies of one draw cost the same to within
0.3% of oracle calls.  Classes keep their blocks because recovery's cycle
cancelling scans vertices in id order: over five renumberings of the
matching problem as it was before every right vertex got a left neighbour,
its time ranged 0.9-4.2 s when sides were mixed, against 4.7-5.7 s over
six with each side kept in its own block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (tail, head, capacity), 0-based vertex ids, integer capacity.
Arc = tuple[int, int, int]


@dataclass(frozen=True)
class Problem:
    """One max-flow problem of a workload's corpus, before relabeling."""

    name: str
    epsilon: float
    n: int
    source: int
    sink: int
    arcs: tuple[Arc, ...]
    # Vertex classes, in id order; renumbering stays within each class.
    classes: tuple[tuple[int, ...], ...]
    # For bipartite matching: the left and right vertex sets, so the check
    # can compute F* a second way, as a maximum bipartite matching.
    bipartite: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class Instance:
    """A relabeled problem as the program receives it, with its arcs in
    file order for the checks."""

    name: str
    epsilon: float
    dimacs: str
    n: int
    source: int
    sink: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    capacities: tuple[int, ...]
    bipartite: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _layout(source: int, sink: int, *middle: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return ((source,),) + middle + ((sink,),)


def random_problem(draw: int, n: int, m: int, epsilon: float) -> Problem:
    """Sparse random digraph: n vertices, m distinct arcs, capacities 1-100,
    source 0 and sink n-1, like the acceptance corpus's larger strata."""
    rng = random.Random(f"random:{n}:{m}:{draw}")
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    arcs = tuple((u, v, rng.randint(1, 100)) for u, v in sorted(pairs))
    classes = _layout(0, n - 1, tuple(range(1, n - 1)))
    return Problem(f"random-n{n}-m{m}-eps{epsilon}", epsilon, n, 0, n - 1, arcs, classes)


def grid_problem(draw: int, rows: int, cols: int, epsilon: float) -> Problem:
    """Directed rows x cols grid: row arcs point forward (left to right),
    column arcs go both ways, the source feeds the first column and the last
    column feeds the sink.  Grid capacities 1-100; source and sink arcs 100."""
    rng = random.Random(f"grid:{rows}:{cols}:{draw}")
    s, t = 0, rows * cols + 1

    def cell(i: int, j: int) -> int:
        return 1 + i * cols + j

    arcs = []
    for i in range(rows):
        arcs.append((s, cell(i, 0), 100))
        arcs.append((cell(i, cols - 1), t, 100))
        for j in range(cols - 1):
            arcs.append((cell(i, j), cell(i, j + 1), rng.randint(1, 100)))
    for i in range(rows - 1):
        for j in range(cols):
            arcs.append((cell(i, j), cell(i + 1, j), rng.randint(1, 100)))
            arcs.append((cell(i + 1, j), cell(i, j), rng.randint(1, 100)))
    classes = _layout(s, t, tuple(range(1, t)))
    return Problem(f"grid-{rows}x{cols}-eps{epsilon}", epsilon, t + 1, s, t, tuple(arcs), classes)


def matching_problem(draw: int, side: int, degree: int, epsilon: float) -> Problem:
    """Unit-capacity bipartite matching s -> L -> R -> t with ``side``
    vertices a side, ``degree`` distinct random right neighbours for every
    left vertex, and at least one left neighbour for every right vertex."""
    rng = random.Random(f"matching:{side}:{degree}:{draw}")
    s, t = 0, 2 * side + 1
    left = tuple(range(1, side + 1))
    right = tuple(range(side + 1, 2 * side + 1))
    arcs = [(s, u, 1) for u in left]
    for u in left:
        arcs += [(u, v, 1) for v in sorted(rng.sample(right, degree))]
    # A right vertex no left vertex chose lies on no s-t path, and the
    # program prunes it; give it one left neighbour so that every vertex
    # stays in the s-t component.
    chosen = {v for _, v, _ in arcs}
    arcs += [(rng.choice(left), v, 1) for v in right if v not in chosen]
    arcs += [(v, t, 1) for v in right]
    return Problem(
        f"matching-{side}x{side}-d{degree}-eps{epsilon}",
        epsilon, t + 1, s, t, tuple(arcs), _layout(s, t, left, right), (left, right),
    )


#: The corpus of each workload: the problems one round solves, in order,
#: and how many differently renumbered copies of each a round holds.
CORPUS = {
    "random": (lambda: [random_problem(3, 60, 300, 0.25), random_problem(0, 35, 180, 0.1)], 1),
    "grid": (lambda: [grid_problem(0, 4, 5, 0.25)], 1),
    "matching": (lambda: [matching_problem(0, 300, 4, 0.25)], 4),
}


def relabel(problem: Problem, seed: int, copy: int = 0) -> Instance:
    """``problem`` with its vertices renumbered within their classes and its
    arcs reordered, both at random from ``seed`` and ``copy``, as DIMACS
    text."""
    rng = random.Random(f"relabel:{problem.name}:{seed}:{copy}")
    perm = list(range(problem.n))
    for cls in problem.classes:
        shuffled = list(cls)
        rng.shuffle(shuffled)
        for old, new in zip(cls, shuffled):
            perm[old] = new
    arcs = [(perm[u], perm[v], c) for u, v, c in problem.arcs]
    rng.shuffle(arcs)
    source, sink = perm[problem.source], perm[problem.sink]
    lines = [f"p max {problem.n} {len(arcs)}", f"n {source + 1} s", f"n {sink + 1} t"]
    lines += [f"a {u + 1} {v + 1} {c}" for u, v, c in arcs]
    bipartite = None
    if problem.bipartite is not None:
        bipartite = tuple(tuple(perm[v] for v in side) for side in problem.bipartite)
    tails, heads, caps = zip(*arcs)
    return Instance(
        f"{problem.name}#{copy}", problem.epsilon, "\n".join(lines) + "\n",
        problem.n, source, sink, tails, heads, caps, bipartite,
    )


def workload(name: str, seed: int) -> list[Instance]:
    """The instances of one round of workload ``name`` under ``seed``."""
    if name not in CORPUS:
        raise ValueError(f"unknown workload {name!r}")
    problems, copies = CORPUS[name]
    return [relabel(p, seed, copy) for p in problems() for copy in range(copies)]
