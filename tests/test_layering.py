"""The import layering of the package, read from the source with `ast`.

Every `from .x import ...` counts, also inside functions.  The layers run
errors and casedata < field < liealg < restricted < toruscartan < search <
cli: a module imports only from layers below its own.  `caseanalysis`
stands beside them, under `cli`, and needs no algebra layer, and
`toruscartan` takes from `restricted` only the 2-map and the torus
routines it is built on.  `cli` takes from `errors` only `InvalidInput`,
which it raises, and `Lie2Error`, whose one handler reads the exit code and
label off the raised class.
"""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

import lie2

LAYERS = {"errors": 0, "casedata": 0, "field": 1, "liealg": 2, "restricted": 3,
          "toruscartan": 4, "search": 5, "cli": 6}
CASEANALYSIS_IMPORTS = {"casedata", "errors", "field"}
TORUSCARTAN_FROM_RESTRICTED = {"RestrictedAlgebra", "packed_square", "square_columns",
                               "torus_part"}
# exit codes and labels live on the error classes, not in tuples in `cli`
CLI_FROM_ERRORS = {"InvalidInput", "Lie2Error"}


def package_imports() -> Dict[str, Dict[str, Set[str]]]:
    """For each module of the package, the names it imports from each
    sibling module; `from . import x` imports module x itself."""
    out: Dict[str, Dict[str, Set[str]]] = {}
    for path in sorted(Path(lie2.__file__).parent.glob("*.py")):
        taken = out.setdefault(path.stem, {})
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is None:
                for alias in node.names:
                    taken.setdefault(alias.name, set())
            else:
                taken.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_every_module_has_a_place():
    assert set(package_imports()) == set(LAYERS) | {"caseanalysis", "__init__"}


def test_layers_import_only_from_below():
    bad = [(mod, dep) for mod, deps in package_imports().items() if mod in LAYERS
           for dep in deps if LAYERS.get(dep, -1) >= LAYERS[mod]]
    assert not bad


def test_caseanalysis_needs_no_algebra_layer():
    assert set(package_imports()["caseanalysis"]) <= CASEANALYSIS_IMPORTS


def test_toruscartan_takes_only_the_torus_routines_of_restricted():
    assert package_imports()["toruscartan"]["restricted"] <= TORUSCARTAN_FROM_RESTRICTED


def test_cli_maps_no_error_class_itself():
    assert package_imports()["cli"]["errors"] <= CLI_FROM_ERRORS
