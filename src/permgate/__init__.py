"""Permutation gates on basis indices: exact statistics, identity
templates, and a semantics-preserving peephole optimizer for reversible
circuits.

`import permgate` loads no submodule: each public name is imported from
its home module on first access (PEP 562) and then cached here.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "circuit": "BUILTIN_GATES Circuit GateInstance OptimizeReport "
               "circuit_permutation equivalent format_circuit load_circuit "
               "optimize parse_circuit save_circuit",
    "classify": "Bipartition CensusReport bipartitions classify_all "
                "is_hermitian is_separable list_gates separable_factors",
    "counting": "involution_count non_hermitian_fraction render_percent",
    "errors": "CapExceeded ClosureError DimensionError FileFormatError "
              "NotationError PermGateError WiringError",
    "perm": "Permutation enumerate_permutations involutions",
    "templates": "GateLibrary Template TemplateStore expand_template "
                 "format_store generate_templates load_store "
                 "multiplication_table parse_store save_store "
                 "two_gate_templates",
}
_HOME = {name: module for module, names in _HOMES.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
