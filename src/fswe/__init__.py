"""Spectral Galerkin simulator and Monte Carlo verification harness for
fractional wave dynamics driven by Levy noise on the unit box."""

from .basis import (BasisError, EigenBasis, build_basis, embedding_constant,
                    lambda_power_sum, lambda_power_tail)
from .green import GreenError, GreenParams, time_integrated_sup
from .noise import (DEFAULT_STABLE_CUTOFF, LevyMeasureSpec, NoiseError,
                    NoisePath, export_path, first_large_jump,
                    integrate_step_field, sample_path, spec_from_dict,
                    spec_to_dict, truncate, zero_after)
from .solver import (COEFFICIENT_PRESETS, CoefficientPair, ModeState,
                     SolverError, SolveSetup, StoppingRecord, Trajectory,
                     detect_stop, make_setup, paste_over_K, paste_over_N,
                     solve_truncated, solve_untruncated)
from .verify import (EnsembleReport, Verdict, additive_linear_suite,
                     check_moment_bound, check_tail_bound, consistency_suite,
                     hatC, isometry_suite, mode_variance_closed_form,
                     moment_growth_bound, replica_seed, survival_suite)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
