"""Exact categorical computation over finite categories.

Everything here is finite and enumerable: categories are given by composition
tables, presheaves land in finite sets, and every universal construction is
computed by explicit search and cross-checked against an independent route.

``import fincat`` loads no submodule: each public name below is imported from
its module when it is first read (PEP 562), and so is each module named here.
The value is read through on every access and never kept in this namespace,
so a function rebound in its module (``perfbench/spans.py`` wraps them all)
is seen here too, and restored with it.
"""
import importlib

_EXPORTS = {
    "errors": """BudgetExceeded CapExceeded DuplicateName EndpointMismatch
        FincatError InternalMismatch MalformedTable ParseError
        UnresolvedReference ValidationFailed WorkspaceError""",
    "core": """Caps FinCategory FinFunctor NatTrans Presheaf Profunctor
        WeightClass category_of_elements compose_functors covariant
        full_subcategory identity_functor is_connected is_filtered nat_compose
        nat_identity product_category same_category unit_category validate""",
    "limits": """coend colimit_in_category finset_colimit finset_limit
        nat_trans_set preserves_weighted_colimit weighted_colimit
        weighted_limit""",
    "equivalence": """all_functors find_equivalence find_isomorphism
        is_fully_faithful presheaf_isomorphic skeleton""",
    "kan": """PresheafCollection lan nerve pointwise_colimit restrict
        yoneda_bijection yoneda_embed""",
    "profunctor": """compose_modules has_right_adjoint id_module
        module_of_weight right_extend right_lift""",
    "cauchy": """cauchy_completion check_absolute_sampled dual_limit_colimit
        dual_pair_from_weight isbell_left isbell_right isbell_unit
        is_small_projective morita_equivalent q_duality retract_oracle
        small_projective_report""",
    "classes": """atoms check_commutation flat_for_finite_limits
        flat_for_terminal in_saturation_bounded is_phi_cocomplete
        is_phi_continuous phi_closure_bounded recognize_free_cocompletion""",
    "workspace": "Workspace load_workspace serialize_workspace",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
