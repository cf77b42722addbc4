"""The package's public surface: 43 names, each the object its home module
defines, resolved on first access."""

import importlib

import pytest

import permgate

HOMES = {
    "circuit": ["BUILTIN_GATES", "Circuit", "GateInstance",
                "OptimizeReport", "circuit_permutation", "equivalent",
                "format_circuit", "load_circuit", "optimize", "parse_circuit",
                "save_circuit"],
    "classify": ["Bipartition", "CensusReport", "bipartitions", "classify_all",
                 "is_hermitian", "is_separable", "list_gates",
                 "separable_factors"],
    "counting": ["involution_count", "non_hermitian_fraction",
                 "render_percent"],
    "errors": ["CapExceeded", "ClosureError", "DimensionError",
               "FileFormatError", "NotationError", "PermGateError",
               "WiringError"],
    "perm": ["Permutation", "enumerate_permutations", "involutions"],
    "templates": ["GateLibrary", "Template", "TemplateStore",
                  "expand_template", "format_store", "generate_templates",
                  "load_store", "multiplication_table", "parse_store",
                  "save_store", "two_gate_templates"],
}
NAMES = sorted(name for names in HOMES.values() for name in names)


def test_all_is_the_43_public_names():
    assert len(NAMES) == 43
    assert permgate.__all__ == NAMES


@pytest.mark.parametrize("home, name", [
    (home, name) for home, names in HOMES.items() for name in names])
def test_each_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"permgate.{home}")
    assert getattr(permgate, name) is getattr(module, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from permgate import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert all(namespace[name] is getattr(permgate, name) for name in NAMES)


def test_dir_lists_every_public_name():
    listed = dir(permgate)
    assert set(NAMES) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        permgate.no_such_name
    with pytest.raises(ImportError):
        exec("from permgate import no_such_name", {})
