"""Steerable convolution kernels for cyclic and dihedral groups, built by
filter transform, with numerical equivariance verification."""

from .features import (
    FeatureMap,
    act_on_feature,
    act_on_feature_stack,
    conv2d,
    feature_map,
    group_pool,
    pool_spatial,
    relu_channelwise,
)
from .filters import coordinate_table, filter_transform
from .groups import GroupElement, GroupSpec, cyclic_group, dihedral_group, parse_group
from .harness import (
    EquivarianceReport,
    check_feature_equivariance,
    check_kernel_elements,
    check_kernel_equivariance,
    is_exact_element,
    kernel_families,
    reports_to_csv,
    run_suite,
    verify_construction_identities,
)
from .kernels import (
    CapacityReport,
    SteerableKernel,
    capacity_report,
    circulant_kernel,
    reverse_kernel,
    steerable_kernel,
)
from .representations import (
    DctBasis,
    RepSpec,
    decompose_regular,
    intertwiner_residual,
    irrep,
    irrep_table,
    regular_rep,
    regular_rep_matrix,
    trivial_rep,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityReport",
    "DctBasis",
    "EquivarianceReport",
    "FeatureMap",
    "GroupElement",
    "GroupSpec",
    "RepSpec",
    "SteerableKernel",
    "act_on_feature",
    "act_on_feature_stack",
    "capacity_report",
    "check_feature_equivariance",
    "check_kernel_elements",
    "check_kernel_equivariance",
    "circulant_kernel",
    "conv2d",
    "coordinate_table",
    "cyclic_group",
    "decompose_regular",
    "dihedral_group",
    "feature_map",
    "filter_transform",
    "group_pool",
    "intertwiner_residual",
    "irrep",
    "irrep_table",
    "is_exact_element",
    "kernel_families",
    "parse_group",
    "pool_spatial",
    "regular_rep",
    "regular_rep_matrix",
    "relu_channelwise",
    "reports_to_csv",
    "reverse_kernel",
    "run_suite",
    "steerable_kernel",
    "trivial_rep",
    "verify_construction_identities",
]
