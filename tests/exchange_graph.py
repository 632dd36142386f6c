"""Breadth-first search over the clusters of an extended exchange matrix.

Each position gets a random integer in 2..10^6 at each of two independent
points, and every new cluster variable is computed exactly (``Fraction``)
from the exchange relation x_k x'_k = prod_{b_ik > 0} x_i^{b_ik} +
prod_{b_ik < 0} x_i^{-b_ik} over column k of the extended matrix.  A cluster
is named by the set of its mutable values at both points, so one collision
at one point cannot merge two clusters.  Frozen values never change.
"""

import math
import random
from collections import deque
from fractions import Fraction

POINTS = 2


def cluster_count(matrix, limit=5000, rng_seed=0):
    """Number of clusters reachable from ``matrix`` by mutation; raises past
    ``limit``, since a matrix of infinite type has infinitely many."""
    rng = random.Random(rng_seed)
    start = tuple(
        {j: Fraction(rng.randint(2, 10**6)) for j in matrix.row_labels} for _ in range(POINTS)
    )

    def name(values):
        return frozenset(tuple(v[k] for v in values) for k in matrix.col_labels)

    seen = {name(start)}
    queue = deque([(matrix, start)])
    while queue:
        b, values = queue.popleft()
        for k in b.col_labels:
            column = b.column(k)
            new = []
            for v in values:
                up = math.prod(v[i] ** e for i, e in column if e > 0)
                down = math.prod(v[i] ** -e for i, e in column if e < 0)
                new.append({**v, k: (up + down) / v[k]})
            key = name(new)
            if key not in seen:
                seen.add(key)
                if len(seen) > limit:
                    raise ValueError(f"more than {limit} clusters")
                queue.append((b.mutate(k), tuple(new)))
    return len(seen)


def finite_type_clusters(family, rank):
    """Cluster count of a cluster algebra of finite type (Fomin-Zelevinsky,
    Y-systems and generalized associahedra, 2003)."""
    if family == "A":
        return math.comb(2 * rank + 2, rank + 1) // (rank + 2)
    if family in "BC":
        return math.comb(2 * rank, rank)
    if family == "D":
        return (3 * rank - 2) * math.comb(2 * rank - 2, rank - 1) // rank
    return {"E6": 833, "E7": 4160, "E8": 25080, "F4": 105, "G2": 8}[f"{family}{rank}"]
