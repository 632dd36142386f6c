"""The initial exchange matrices of cells against the cluster counts of the
finite types that Scott (Grassmannians and cluster algebras, 2006) and
Geiss-Leclerc-Schroer (Partial flag varieties and preprojective algebras,
2008) give them."""

import pytest

from cellseed import LieType, ParabolicConfig, cell_word, initial_matrix
from exchange_graph import cluster_count, finite_type_clusters

#: (cell family, rank, J), the finite type of its cluster algebra, its count
CELLS = [
    ("A", 3, (2,), ("A", 1), 2),  # Gr(2,4)
    ("A", 4, (2,), ("A", 2), 5),  # Gr(2,5)
    ("A", 5, (2,), ("A", 3), 14),  # Gr(2,6)
    ("A", 6, (2,), ("A", 4), 42),  # Gr(2,7)
    ("A", 5, (3,), ("D", 4), 50),  # Gr(3,6)
    ("A", 6, (3,), ("E", 6), 833),  # Gr(3,7)
    ("A", 3, (1, 2, 3), ("A", 3), 14),  # C[N] of SL4
    ("A", 4, (1, 2, 3, 4), ("D", 6), 672),  # C[N] of SL5
    ("B", 3, (3,), ("B", 3), 20),
    ("C", 3, (3,), ("C", 3), 20),
]


@pytest.mark.parametrize(
    "family,rank,js,kind,count",
    CELLS,
    ids=[f"{f}{n}-J{','.join(map(str, js))}" for f, n, js, *_ in CELLS],
)
def test_cell_has_the_cluster_count_of_its_type(family, rank, js, kind, count):
    assert finite_type_clusters(*kind) == count
    lt = LieType(family, rank)
    matrix = initial_matrix(lt, cell_word(lt, ParabolicConfig.from_j(lt, js)))
    assert cluster_count(matrix) == count

