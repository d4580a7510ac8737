"""Section volumes of the regular n-simplex and its affine images.

Three mutually independent methods: a residue closed form, adaptive
quadrature of the Fourier-integral formula, and a vertex-enumeration
oracle; plus the extremal bounds and the compressed-simplex construction
where a central section beats every face.
"""

from .closed_form import (
    CentralForm,
    Direction,
    VolumeResult,
    a_max_direction,
    a_min_direction,
    brascamp_lieb_bounds,
    central_to_embedded,
    centroid_distance,
    embedded_to_central,
    max_noncentral_bound,
    random_direction_fixed_sum,
    random_direction_sign_pattern,
    residue_functional,
    residue_volume,
    special_max_volume,
    special_min_volume,
    subspace_origin_distance,
)
from .errors import (
    CounterexampleFound,
    DegenerateInput,
    DegeneratePolytope,
    EmptySection,
    NoSolution,
    NotFound,
    NotSupported,
    OutOfRange,
    PointSection,
    RankDeficient,
    SimplexSectionError,
    TolUnreachable,
    ZeroHits,
)
from .extremal import (
    MinSearchReport,
    RescaleSolution,
    SignPattern,
    SubspaceBoundReport,
    balance_transform,
    concentrate_transform,
    conjectured_kdim_maximizer,
    explore_minimum_search,
    minimize_frustum,
    product_sum_sandwich,
    verify_global_minimum,
    verify_kdim_bounds,
)
from .irregular import (
    CompressedSimplex,
    central_vs_face_ratio,
    central_vs_face_ratio_limit,
    compressed_simplex,
    extrapolated_degeneracy_ratio,
    find_central_dominating_delta,
    general_section_volume,
)
from .oracle import (
    SectionPolytope,
    SimplexSpec,
    face_volumes,
    frustum_volume,
    general_simplex,
    hyperplane_section_vertices,
    kdim_section_vertices,
    monte_carlo_slab_volume,
    polytope_volume,
    regular_simplex,
    simplex_volume,
)
from .quadrature import (
    hyperplane_basis_of,
    hyperplane_volume_quadrature,
    kdim_volume_quadrature,
    monte_carlo_cone_volume,
)
from .subspaces import (
    SubspaceBasis,
    basis_from_rows,
    complement_of_span,
    hyperplane_basis,
    random_subspace_through_centroid,
)

__version__ = "0.1.0"
