"""Building steerable kernels by filter transform and checking steerability.

A kernel is steerable when evaluating it at transformed coordinates equals
conjugating it by the input/output representations.  `steerable_kernel`
realizes each (rep_in -> regular) pair from plain rotated copies of base
filters; the check prints the worst deviation over all group elements.
"""

import numpy as np

from filtra import (
    capacity_report,
    check_kernel_elements,
    circulant_kernel,
    cyclic_group,
    dihedral_group,
    irrep,
    regular_rep,
    reverse_kernel,
    steerable_kernel,
    trivial_rep,
)

np.set_printoptions(precision=3, suppress=True)
rng = np.random.default_rng(0)


def worst_residual(kernel):
    return max(a for a, _ in check_kernel_elements(kernel, kernel.rep_in.spec.elements()))


base = rng.uniform(-1.0, 1.0, (3, 3))

# Trivial -> regular: the kernel rows are simply the rotated copies; a rotated
# input makes the output channels cycle.
k1 = steerable_kernel(trivial_rep(cyclic_group(4)), [base])
print(f"trivial->regular on c4: {k1.grids.shape[0]}x{k1.grids.shape[1]} grids, "
      f"worst residual {worst_residual(k1):.2e}")

# Irrep -> regular: each rotated copy is scaled by the cosine/sine values of
# the input frequency.
k2 = steerable_kernel(irrep(cyclic_group(4), 0, 1), [base])
print(f"irrep(k=1)->regular on c4: worst residual {worst_residual(k2):.2e}")

k3 = steerable_kernel(irrep(dihedral_group(4), 1, 1), [base])
print(f"irrep(j=1,k=1)->regular on d4: worst residual {worst_residual(k3):.2e}")

# Regular -> regular: one independent base filter per frequency block, mixed
# by the inverse DCT basis.
bases = [rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(3)]
k4 = steerable_kernel(regular_rep(cyclic_group(4)), bases)
print(f"regular->regular on c4: worst residual {worst_residual(k4):.2e}")

# Transposing a steerable kernel reverses its direction (all representations
# here are orthogonal).
k5 = reverse_kernel(k4)
print(f"reversed regular->regular: worst residual {worst_residual(k5):.2e}")

# The single-filter circulant baseline stores the same N*N grids but only one
# base filter's worth of free weights.
k6 = circulant_kernel(base, 4)
print(f"circulant baseline on c4: worst residual {worst_residual(k6):.2e}")

print("\nweight capacity at N=8, S=5 (free weights vs stored scalars):")
for kind in ("reg2reg", "orn"):
    rep = capacity_report(8, 5, kind)
    print(f"  {rep.kernel_kind:8s} {rep.independent_weights:5d} / {rep.stored_filter_scalars}")

# Interpolation honesty: at angles that do not map the grid to itself the
# constraint holds only approximately, and the residual is simply reported.
k7 = steerable_kernel(trivial_rep(cyclic_group(8)), [rng.uniform(-1.0, 1.0, (9, 9))])
c8 = cyclic_group(8)
print("\nper-element residuals for a 9x9 trivial->regular kernel on c8 (bilinear):")
for g in c8.elements():
    abs_res, _ = check_kernel_elements(k7, [g])[0]
    tag = "exact" if abs_res < 1e-12 else "interpolated"
    print(f"  rotation index {g.i1}: {abs_res:.3e}  ({tag})")

# Nearest-neighbor 3x3 kernels are exact for every element of c8/d8.
k8 = steerable_kernel(trivial_rep(cyclic_group(8)), [base], "nearest")
print(f"\n3x3 nearest trivial->regular on c8: worst residual {worst_residual(k8):.2e}")
d8 = dihedral_group(8)
k9 = steerable_kernel(irrep(dihedral_group(8), 1, 1), [base], "nearest")
print(f"3x3 nearest irrep->regular on d8: worst residual {worst_residual(k9):.2e}")
