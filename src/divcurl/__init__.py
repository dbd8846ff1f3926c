"""Exact and spectral verification toolkit for higher order div-curl
complexes on the torus."""

__version__ = "0.1.0"

from .increments import IncrementSolution, admissible_increments
from .multiindex import (
    Ordering,
    complement,
    labels,
    make_ordering,
    multiindices,
    random_ordering,
)
from .trigpoly import TrigPoly
from .gridfield import GridField, grid_points
from .randoms import divergence_free_family, random_trig_form, random_trigpoly
from .forms import (
    Form,
    form_max_abs,
    grad_lp_norm,
    hodge_star,
    inner_product,
    inner_product_wedge,
    lp_norm,
    partial,
    pullback_linear,
    sample_form,
    sobolev_norm,
    wedge,
    zero_form,
)
from .operators import (
    CoeffTensor,
    OperatorSpec,
    apply_T,
    apply_T_star,
    apply_T_star_coordinate,
    box_apply,
    box_coeff_closed_form,
    box_coeff_tensor,
    coeff_entry_direct,
    compose_TT,
    divergence_defect,
    invariance_defect,
    spec_for,
    tt_single_orientation,
    vs_lift,
    vs_reduction,
)
from .symbol import (
    box_symbol,
    ellipticity_scan,
    lh_quotient,
    min_symbol_eigenvalue,
    rational_sphere_point,
    source_symbol_scalar,
    symbol_rayleigh,
    wave_symbol_check,
)
from .inequalities import (
    BumpSpec,
    bump_form,
    classical_gn_ratio,
    default_config,
    dilate_form_specs,
    duality_dilation_study,
    duality_ratio,
    gn_ratio,
    hodge_solve,
    make_closed_source,
    make_coclosed_source,
    random_bump_form,
    run_suite,
    scalar_symbol_array,
)
from .verify import CheckRecord, default_cases, identity_suite, run_verify
