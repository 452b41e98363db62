"""The verification harness: construction identities and the full residual suite.

The construction identities run the kernel assembly on free placeholder
stacks in place of filter stacks, which makes them exact linear algebra: one
residual per group kind and input representation.  The suite
then builds every kernel family from seeded random filters and tabulates the
steerability residuals per group element.
"""

from filtra import (
    cyclic_group,
    dihedral_group,
    reports_to_csv,
    run_suite,
    verify_construction_identities,
)

print("construction identities at N=6:")
for label, residual in verify_construction_identities(6).items():
    print(f"  {label:20s} {residual:.2e}")

reports = run_suite([cyclic_group(4), dihedral_group(4)], sizes=[3, 5], modes=["bilinear"], seed=42)
print(f"\nsuite over {len(reports)} kernel configurations:")
for r in reports[:6]:
    print(f"  {r.kernel_kind:18s} {r.group.name} S={r.size} {r.mode}: "
          f"exact-subgroup max {r.exact_subgroup_max:.2e}, "
          f"full-group max {r.full_group_max:.2e}")
print("  ...")
print("all exact-subgroup assertions pass:", all(r.passed() for r in reports))

# The same data as machine-readable CSV (what `filtra verify --report` writes).
csv_text = reports_to_csv(reports)
print("\nfirst CSV lines:")
print("\n".join(csv_text.splitlines()[:5]))

# At sizes and angles without exact grid actions, the residuals are honest
# interpolation error: computed and reported, with no bound asserted.
interpolated = run_suite([cyclic_group(8)], sizes=[9], modes=["bilinear"], seed=42)
worst = max(r.full_group_max for r in interpolated)
exact = max(r.exact_subgroup_max for r in interpolated)
print(f"\nc8 with 9x9 bilinear filters: exact subgroup {exact:.2e}, "
      f"full group (interpolated angles) {worst:.2e}")
