"""The three volume methods stay independent: none calls another's formula.

The oracle and the quadrature may take the shared `Direction` and
`VolumeResult` types from `closed_form` (the quadrature also the
origin-distance helper that places its subspace), and nothing else; the
residue module imports neither of them.  No method imports the harness
that checks the methods against each other and against the paper's bounds.
The Monte Carlo draw loop (`montecarlo`), which the oracle's slab and the
quadrature's cone estimator share, imports no method and no harness module.
"""
import ast
from pathlib import Path

import pytest

import simplex_sections

PACKAGE = Path(simplex_sections.__file__).resolve().parent
METHODS = ("closed_form", "oracle", "quadrature")
HARNESS = ("extremal", "irregular", "verify", "cli")
SHARED = {"Direction", "VolumeResult"}


def _imports(module: str) -> dict[str, set[str]]:
    """Package modules imported by `module`, with the names taken from each.

    A whole-module import (`from . import closed_form`, `import
    simplex_sections.closed_form`) is recorded as the name "*".
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and not source.startswith("simplex_sections"):
                continue
            source = source.removeprefix("simplex_sections").lstrip(".")
            if source:
                found.setdefault(source, set()).update(a.name for a in node.names)
            else:  # from . import x
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("simplex_sections."):
                    found.setdefault(alias.name.split(".", 1)[1], set()).add("*")
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("oracle", SHARED),
        ("quadrature", SHARED | {"subspace_origin_distance"}),
    ],
)
def test_methods_take_only_shared_types_from_the_residue(module, allowed):
    imports = _imports(module)
    assert imports.get("closed_form", set()) <= allowed
    assert not {m for m in METHODS if m not in ("closed_form", module)} & imports.keys()


def test_residue_imports_no_other_method():
    assert not {"oracle", "quadrature"} & _imports("closed_form").keys()


@pytest.mark.parametrize("module", METHODS)
def test_methods_import_no_harness_module(module):
    assert not set(HARNESS) & _imports(module).keys()


def test_montecarlo_imports_no_method_or_harness_module():
    assert not {*METHODS, *HARNESS} & _imports("montecarlo").keys()
