"""Exact tools for restricted Lie algebras over fields of characteristic 2."""

from __future__ import annotations

from .caseanalysis import (Certificate, DimPattern, ROOT_ORDER,
                           admissible_toral_space, check_certificate,
                           compare_published_spans, cross_check_paper_lists,
                           enumerate_patterns, enumerate_root_systems,
                           gl3_canonicalize_dims, kill_pattern,
                           refute_root_system, verify_paper)
from .errors import (BudgetExceeded, CheckFailed, DimensionTooLarge,
                     InternalInconsistency, InvalidInput, Lie2Error, NotCanonical,
                     NotTwoMapClosed, NotSimultaneouslyDiagonalizable, SplitFailed,
                     XiNotInSystem)
from .field import FIELD_CAVEAT, GF, GF2, Subspace, full_space, smallest_irreducible
from .liealg import (CatalogEntry, LieAlgebra, SimplicityReport, catalog,
                     catalog_names, center, centralizer, derived_series,
                     from_json, ideal_closure, is_ideal, is_simple,
                     is_subalgebra, lower_central_series, to_json,
                     validate_lie)
from .restricted import (ElementClass, JcsParts, RestrictedAlgebra,
                         classify_element, jcs_decompose, synthesize_two_map,
                         two_map_eval, validate_restricted)
from .toruscartan import (CartanDecomposition, Torus, audit_decomposition,
                          cartan_split, is_torus, max_tori, toral_elements,
                          weight_decompose)

__version__ = "0.1.0"

_LAZY = {"census", "iso_match", "CensusReport"}


def __getattr__(name):
    # the census module needs numpy; load it only on demand
    if name in _LAZY:
        from . import search
        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
