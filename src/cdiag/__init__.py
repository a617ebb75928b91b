"""Levels of the classifying diagram of a finite category, decomposed into
components with explicit stabilizer groups, with closed forms for ordinals,
truncated ordered sets, finite sets, and vector spaces over prime fields
cross-checked against a brute-force orbit engine."""

from .chains import StabilizerGroup, TupleBlock, level_blocks
from .classifying import (Component, Decomposition, completeness_check,
                          component_maps, is_discrete_classifying,
                          level_decomposition, nerve_truncation, segal_check)
from .fincat import (FiniteCategory, from_catdef, iso_interval,
                     maximal_subgroupoid, one_object_group, ordinal,
                     parse_catdef, truncated_delta, validate_category,
                     walking_arrow)
from .groups import (CayleyTable, GeneralLinear, GroupExpr, Product,
                     Symmetric, Trivial, Wreath, are_isomorphic, materialize)
from .limits import DEFAULT_LIMITS, Limits

__version__ = "0.1.0"

__all__ = [
    "StabilizerGroup", "TupleBlock", "level_blocks", "Component", "Decomposition",
    "completeness_check", "component_maps", "is_discrete_classifying", "level_decomposition",
    "nerve_truncation", "segal_check", "FiniteCategory", "from_catdef", "iso_interval",
    "maximal_subgroupoid", "one_object_group", "ordinal",
    "parse_catdef", "truncated_delta", "validate_category", "walking_arrow",
    "CayleyTable", "GeneralLinear", "GroupExpr", "Product", "Symmetric",
    "Trivial", "Wreath", "are_isomorphic", "materialize", "DEFAULT_LIMITS",
    "Limits",
]
