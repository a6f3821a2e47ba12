"""Exact categorical computation over finite categories.

Everything here is finite and enumerable: categories are given by composition
tables, presheaves land in finite sets, and every universal construction is
computed by explicit search and cross-checked against an independent route.
"""

from .cauchy import (cauchy_completion, check_absolute_sampled,
                     dual_limit_colimit, dual_pair_from_weight, isbell_left,
                     isbell_right, is_small_projective, morita_equivalent,
                     q_duality, retract_oracle, small_projective_report)
from .classes import (Caps, atoms, check_commutation,
                      comma_connectedness_witness, flat_for_finite_limits,
                      flat_for_terminal, in_saturation_bounded,
                      is_phi_cocomplete, is_phi_continuous, phi_closure_bounded,
                      recognize_free_cocompletion)
from .core import (FinCategory, FinFunctor, NatTrans, Presheaf, Profunctor,
                   WeightClass, category_of_elements, compose_functors, covariant,
                   full_subcategory, identity_functor, is_connected,
                   is_filtered, nat_compose, nat_identity, product_category,
                   same_category, unit_category, validate)
from .equivalence import (all_functors, find_equivalence, find_isomorphism,
                          is_fully_faithful, presheaf_isomorphic, skeleton)
from .errors import (BudgetExceeded, CapExceeded, DuplicateName,
                     EndpointMismatch, FincatError, InternalMismatch,
                     MalformedTable, ParseError, UnresolvedReference,
                     ValidationFailed, WorkspaceError)
from .kan import (PresheafCollection, lan, nerve, pointwise_colimit, restrict,
                  yoneda_bijection, yoneda_embed)
from .limits import (coend, colimit_in_category, end, finset_colimit,
                     finset_limit, limit_in_category, nat_trans_set,
                     preserves_weighted_colimit, weighted_colimit,
                     weighted_limit)
from .profunctor import (compose_modules, functor_to_modules,
                         has_right_adjoint, id_module, module_of_coweight,
                         module_of_weight, modules_isomorphic, right_extend,
                         right_lift)
from .workspace import Workspace, load_workspace, serialize_workspace

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CapExceeded", "Caps", "DuplicateName",
    "EndpointMismatch", "FinCategory", "FinFunctor", "FincatError",
    "InternalMismatch", "MalformedTable", "NatTrans", "ParseError", "Presheaf",
    "PresheafCollection", "Profunctor", "UnresolvedReference",
    "ValidationFailed", "WeightClass", "Workspace", "WorkspaceError",
    "all_functors", "atoms", "category_of_elements", "cauchy_completion",
    "check_absolute_sampled", "check_commutation", "coend",
    "colimit_in_category", "comma_connectedness_witness", "compose_functors",
    "compose_modules", "covariant", "dual_limit_colimit",
    "dual_pair_from_weight", "end", "find_equivalence", "find_isomorphism",
    "finset_colimit", "finset_limit", "flat_for_finite_limits",
    "flat_for_terminal", "full_subcategory", "functor_to_modules",
    "has_right_adjoint", "id_module", "identity_functor",
    "in_saturation_bounded", "is_connected", "is_filtered",
    "is_fully_faithful", "is_phi_cocomplete", "is_phi_continuous",
    "is_small_projective", "isbell_left", "isbell_right", "lan",
    "limit_in_category", "load_workspace", "module_of_coweight",
    "module_of_weight", "modules_isomorphic", "morita_equivalent",
    "nat_compose", "nat_identity", "nat_trans_set", "nerve",
    "phi_closure_bounded", "pointwise_colimit", "preserves_weighted_colimit",
    "presheaf_isomorphic", "product_category", "q_duality",
    "recognize_free_cocompletion", "restrict", "retract_oracle",
    "right_extend", "right_lift", "same_category", "serialize_workspace",
    "skeleton",
    "small_projective_report", "unit_category", "validate", "weighted_colimit",
    "weighted_limit", "yoneda_bijection", "yoneda_embed",
]
