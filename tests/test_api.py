"""The package exports what the command line and a library caller use, and no test oracle."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import torsionlab

import oracles

PUBLIC = {
    # presentations, words and representations
    "ParseError", "Presentation", "parse_presentation",
    "UnitaryRep", "parse_representation",
    # the Fox route
    "LaurentPoly", "TwistedAlexanderResult", "twisted_alexander",
    # the CW route
    "TorsionReport", "TwistedCWComplex", "knot_complex", "parse_complex", "torsion_report",
    # the Euler product
    "LengthSpectrum", "SpectrumWarning", "format_spectrum", "parse_spectrum", "ruelle_eval",
}


def oracle_names():
    """Every name tests/oracles.py defines at top level."""
    names = set()
    for node in ast.parse(Path(oracles.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_public_names():
    names = {name for name, value in vars(torsionlab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_no_oracle_is_importable_from_the_package():
    names = oracle_names()
    assert {"GroupRingElement", "boundary1", "comb_laplacian", "matmul"} <= names
    modules = [torsionlab] + [importlib.import_module(f"torsionlab.{m.name}")
                              for m in pkgutil.iter_modules(torsionlab.__path__)]
    for module in modules:
        assert not names & set(vars(module)), module.__name__
