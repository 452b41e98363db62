"""Decomposing regular representations with discrete cosine transform bases.

Each basis stacks the first columns of its group's irreps over the group.
The cyclic basis V holds sampled cosine/sine columns per rotation frequency;
the dihedral irrep (j, k) repeats them on the reflections with the sign
(-1)**j, so the dihedral basis W is [[V, V], [V, -V]].  Conjugating by the
basis turns the big permutation matrices into small independent irrep blocks,
which is also what lets one base filter per frequency span a
regular-to-regular kernel.
"""

import numpy as np

from filtra import cyclic_group, decompose_regular, dihedral_group, regular_rep_matrix
from filtra.representations import group_dct_basis

np.set_printoptions(precision=3, suppress=True, linewidth=140)

n = 6
v = group_dct_basis(cyclic_group(n))
print(f"cyclic basis for N={n} (column blocks {[(j, k) for j, k, _ in v.blocks]}):")
print(v.matrix)

# Columns are orthogonal but unnormalized: the Gram matrix is diagonal with
# entries N or N/2, so the inverse is a scaled transpose.
print("\nGram diagonal:", np.diag(v.matrix.T @ v.matrix))

g = cyclic_group(n).element(0, 1)
basis, d = decompose_regular(g)
print(f"\nblock-diagonal form of the rotation {g}:")
print(d)
residual = np.abs(basis.matrix @ d @ basis.inverse() - regular_rep_matrix(g)).max()
print(f"reconstruction residual: {residual:.2e}")

# The dihedral basis does the same for D_N, including reflected elements.
h = dihedral_group(n).element(1, 2)
basis_w, d_w = decompose_regular(h)
residual = np.abs(basis_w.matrix @ d_w @ basis_w.inverse() - regular_rep_matrix(h)).max()
print(f"\ndihedral reconstruction residual at {h}: {residual:.2e}")
print("W column blocks:", [(j, k) for j, k, _ in group_dct_basis(dihedral_group(n)).blocks])
