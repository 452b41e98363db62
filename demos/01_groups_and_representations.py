"""Group elements and their representation matrices.

Walks through the element encoding (i0, i1), composition, each element's
coordinate map on the plane, and the three representation kinds: trivial,
irreducible, regular.
"""

import numpy as np

from filtra import coordinate_table, cyclic_group, dihedral_group, irrep_table, regular_rep_matrix

np.set_printoptions(precision=3, suppress=True, linewidth=120)

# A dihedral group D_4: four rotations, four reflected elements.
d4 = dihedral_group(4)
print(f"{d4.name}: order {d4.order}")
print("elements:", d4.elements())

# (i0, i1) acts on the plane as the rotation by i1/N of a turn, after the
# reflection y -> -y when i0 = 1.  Rotation then reflection is again a reflection.
r = d4.element(0, 1)   # quarter turn
m = d4.element(1, 0)   # reflection about the x-axis
print("\nrotation * reflection =", r.compose(m))
print("reflection * rotation =", m.compose(r))
print("a reflection squares to the identity:", m.compose(m))

# Each element's coordinate map is its row of one table per group; the table
# multiplies like the elements do.
table = coordinate_table(d4)
print(f"\ncoordinate map of {r}:")
print(table[r.index])
print(f"coordinate map of {m}:")
print(table[m.index])
deviation = np.abs(table[(r * m).index] - table[r.index] @ table[m.index]).max()
print(f"map of r * m against map of r @ map of m: max deviation {deviation:.2e}")

# The regular representation permutes coordinates indexed by the elements
# themselves (i0-major, i1 ascending).
print("\nregular representation of the quarter turn:")
print(regular_rep_matrix(r))
print("regular representation of the reflection:")
print(regular_rep_matrix(m))

# Irreps are tagged by a reflection frequency j and a rotation frequency k.
# Frequency k spins a 2-vector k times per full input turn.
print("\nirrep (j=0, k=1) at the quarter turn (a 90-degree 2D rotation):")
print(irrep_table(d4, 0, 1)[r.index])
print("irrep (j=1, k=1) at the reflection:")
print(irrep_table(d4, 1, 1)[m.index])

# Representations are group homomorphisms: matrices multiply like elements.
c8 = cyclic_group(8)
g, h = c8.element(0, 3), c8.element(0, 7)
rho = irrep_table(c8, 0, 2)
lhs = rho[g.compose(h).index]
rhs = rho[g.index] @ rho[h.index]
print(f"\nhomomorphism check on {c8.name}: max deviation {np.abs(lhs - rhs).max():.2e}")
