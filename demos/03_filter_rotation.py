"""Rotating and reflecting discrete filters: the filter transform.

Filter grids are small odd-sized patches resampled under the planar
rotations and reflections of a group.  The filter transform stacks a base
filter with one transformed copy per group element.  Quarter turns permute
pixels exactly; on a 3x3 grid under nearest-neighbor interpolation, eighth
turns are exact too (the outer ring shifts one slot).  Everything else is
honest interpolation.
"""

import numpy as np

from filtra import cyclic_group, dihedral_group, filter_transform
from filtra.filters import coordinate_table, sample_plane

np.set_printoptions(precision=3, suppress=True)

patch = np.arange(1.0, 10.0).reshape(3, 3)
print("base patch:")
print(patch)

# Entry m of the C_N filter transform is the patch turned counter-clockwise
# by m/N of a full turn; entry 0 is the patch itself.
c4 = filter_transform(patch, cyclic_group(4), "bilinear")
print("\nquarter turn (exact pixel permutation, either mode):")
print(c4[1])

c8 = filter_transform(patch, cyclic_group(8), "nearest")
print("\neighth turn, nearest neighbor: the ring shifts by one, center fixed:")
print(c8[1])

eight = patch.copy()
for _ in range(8):
    eight = filter_transform(eight, cyclic_group(8), "nearest")[1]
print("eight eighth-turns return the original bit-for-bit:", np.array_equal(eight, patch))

print("\neighth turn, bilinear: interpolated, mass leaks off the corners:")
print(filter_transform(patch, cyclic_group(8), "bilinear")[1])

# On D_N the stack has 2N entries: the N rotated copies, then the N rotated
# copies of the patch reflected about the x-axis.  These stacks are the raw
# material for every steerable kernel in this package.
d4 = filter_transform(patch, dihedral_group(4), "bilinear")
print(f"\nD_4 filter transform: {d4.shape[0]} copies; entries 0-3 equal the C_4 stack:",
      np.array_equal(d4[:4], c4))
print("entry 4, the reflection about the x-axis, is a row flip:")
print(d4[4])
for i, entry in enumerate(d4[5:], start=5):
    print(f"entry {i} (reflection, then {i - 4} quarter turn(s)):\n{entry}")

# sample_plane through one element's coordinate map evaluates a filter at
# coordinates moved by that element: reflections first, then rotation.  The
# filter transform's copy for element g is the patch evaluated at g^-1 x.
group = dihedral_group(4)
g = group.element(1, 1)
moved = sample_plane(patch, coordinate_table(g.spec)[g.index], "bilinear")
print(f"\npatch evaluated at coordinates moved by {g}:")
print(moved)
print("equals the filter transform's entry for its inverse:",
      np.array_equal(moved, d4[group.elements().index(g.inverse())]))
