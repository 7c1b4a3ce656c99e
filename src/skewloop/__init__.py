"""Semifields S_f = K[t;sigma]/K[t;sigma]f over finite fields and the
structure of their multiplicative loops: nuclei, multiplication and inner
mapping groups, automorphisms, and counting/classification reports."""

from .gf import (FieldCtx, TowerCtx, make_tower, rel_norm, norm_kernel,
                 field_automorphisms, parse_element, parse_field_descriptor)
from .skewpoly import (poly, degree, skew_mul, right_divmod, right_rem,
                       reduced_norm, is_irreducible, is_right_invariant, is_admissible,
                       enumerate_admissible, parse_poly, format_poly)
from .semifield import (SemifieldCtx, build_semifield, associator, inverses,
                        nuclei, t_power_diagnostics, analysis_json)
from .loops import (LoopCtx, build_loop, loop_from_table, mlt_group,
                    inn_group, inner_mapping, cyclicity,
                    subloops_and_lagrange, loop_isomorphic,
                    write_latin_csv, read_latin_csv, loop_report)
from .permgroup import BSGS, bsgs_build, identify_small_group, gl_order, sl_order
from .autgroup import (AutHK, InnerAut, solve_aut_conditions, apply_aut,
                       aut_group_structure, inner_automorphisms,
                       match_inner_to_hk, s_gcd_count, subgroup_comparison)
from .census import (theta, count_central_irreducible, count_irreducible_enum,
                     gammaL_orbit_count, cyclic_algebra_classes, numb_bound,
                     similar, similarity_classes, sandler_exists,
                     kantor_bound, bounds_report)

__version__ = "0.1.0"
