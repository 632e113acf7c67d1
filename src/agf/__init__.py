"""Exact rearrangement calculus on grids, with inequality verification.

Core objects: GridFunction (piecewise-constant representative on a uniform
grid) and StepFunction (left-continuous step function on the half line, the
exact form of decreasing rearrangements).  On top of those: partial moduli of
continuity with exact piecewise-linear curves, Lorentz / Besov / Gagliardo
functionals, level-set projection geometry, and numerical verifiers for the
rearrangement and embedding estimates.
"""

from .errors import (AgfError, ParameterError, PreconditionError, ResourceError,
                     ValidationError)
from .grid import GridFunction, lp_norm, load_agf, load_cells_csv, make_grid_function, save_agf
from .step import StepFunction, step_from_pieces
from .rearrange import (axis_rearrangement, decreasing_rearrangement, distribution,
                        dyadic_decrement, is_mdec, iterated_rearrangement,
                        strict_order, strictify)
from .moduli import (ModulusCurve, interval_curve_1d, interval_modulus_1d,
                     modulus_axioms_check, modulus_curve, partial_modulus,
                     shift_difference_norm, shift_norm_integral, steklov_axis_derivative,
                     steklov_derivative_norm, steklov_distance, steklov_distances,
                     steklov_mean)
from .norms import (BesovParams, GagliardoSums, LipschitzParams, besov_seminorm,
                    derive_lipschitz_params, derive_params, gagliardo_seminorm,
                    gagliardo_sums, lipschitz_seminorm, lorentz_norm, mixed_lorentz_norm)
from .geometry import (AnisotropicGauge, CellSet, ProjectionProfile, box_average,
                       box_average_field, build_gauge, default_t_grid,
                       loomis_whitney_check, minimal_projection_chain,
                       projection_profile, superlevel_filling)
from .verify import (InequalityReport, LimitTrace, Member, limiting_sweep,
                     verify_anisotropic_estimate, verify_axis_decrement,
                     verify_box_operator, verify_embedding,
                     verify_fractional_sobolev, verify_gagliardo_limit,
                     verify_gauge_product, verify_isotropic_estimate,
                     verify_limit_relations, verify_lipschitz_endpoint,
                     verify_modulus_lemmas, verify_rearrangement_modulus)
from .corpus import CorpusSpec, corpus_hash, generate_corpus
from .calibration import BudgetFile, calibrate_from_reports, load_budgets, save_budgets
from .experiments import default_corpus, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
