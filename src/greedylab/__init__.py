"""greedylab: thresholding greedy approximation over Schreier-type families."""

from .config import BudgetExceeded
from .family_norms import (jamesification_norm, schreier_alpha_norm,
                           weighted_schreier_norm)
from .greedy import (ConstantEstimate, GreedyResult, SearchSpec,
                     almost_greedy_error, best_coefficients, estimate_constant,
                     greedy_set, property_A_check, sigma_m, theorem_suite)
from .norms import NormOracle, block_sum_norm, kt_block_norm, mixed_parity_norm
from .ordinals import (OMEGA, ONE, ZERO, Ordinal, OrdinalError,
                       fundamental_term, parse_ordinal)
from .rah import (GeometricBlock, IndexStream, ShiftedInt, WeightFamily,
                  democracy_growth_table, int_descriptor, make_weight_family,
                  rah_schreier_bound_search, rah_sequence, rah_vector,
                  weight_family_certificates)
from .schreier import (FamilyError, FamilyHandle, f_alpha_member,
                       f_alpha_split, family_subsets, min_level_find,
                       schreier_decompose, schreier_maximal, schreier_member,
                       tail_shift_find)
from .spaces import make_space
from .vectors import SparseVector, VectorError

__all__ = [name for name in dir() if not name.startswith("_")]
