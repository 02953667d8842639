"""Extremal separating set systems: constructions, oracles, bounds, search.

The layers ``core``, ``verify``, ``bounds``, ``construct`` and ``search`` are
registered in ``sys.modules`` through ``importlib.util.LazyLoader``: each is
compiled and executed when one of its attributes is first read, so a CLI
command pays only for the layers it uses.  The public names below are read
off their home layer on first access and then cached here.
"""

import importlib.util
import sys

# layer -> the public names it exports through the package
_EXPORTS = {
    "core": (
        "CapacityError",
        "Family",
        "PERMUTATIONS_AND_SWITCHING",
        "PERMUTATIONS_ONLY",
        "SeparatorWitness",
        "new_family",
        "family_from_words",
        "dual",
        "switch",
        "relabel",
        "canonical_form",
        "is_proper",
        "is_sperner",
    ),
    "verify": (
        "Certificate",
        "is_separating",
        "is_completely_separating",
        "is_k_hypercompletely_separating",
        "is_k_hyperseparating",
        "is_nice",
        "find_separator",
        "owns_unique_subsets",
        "pair_family_valid",
        "check_separator_witness",
        "recheck_certificate",
    ),
    "bounds": (
        "BoundPair",
        "binom",
        "k_prime",
        "min_m_hcs",
        "separating_min",
        "spencer_min",
        "f2_exact",
        "f_bounds",
    ),
    "construct": (
        "ReductionOutcome",
        "binary_separating",
        "spencer_completely_separating",
        "k_hcs_minimal",
        "nice_small_m",
        "hyperseparating_minimal_2",
        "antichain_lift",
        "proof_step_reduction",
    ),
    "search": (
        "SearchReport",
        "ExistenceResult",
        "max_nice_size",
        "exists_nice_of_size",
        "min_m_hyperseparating",
        "max_unique_subset_family",
        "max_pair_family",
    ),
}

_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _lazy(layer):
    """Register ``sepsys.<layer>`` in ``sys.modules``, to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _lazy(_layer)
del _layer


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
