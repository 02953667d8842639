"""The package surface: lazily loaded layers and the names re-exported from them."""

import importlib
import os
import pickle
import subprocess
import sys

import pytest

import sepsys
import sepsys.verify as verify
from sepsys import Family, is_nice, max_nice_size

LAYERS = ("bounds", "construct", "core", "search", "verify")


def _python(code, stdin=b""):
    """Run ``code`` in a fresh interpreter that imports this checkout's sepsys."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sepsys.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_import_registers_every_layer_and_executes_none():
    # type() does not go through the module's attribute lookup, so the check
    # itself loads nothing
    code = (
        "import sys, types, sepsys\n"
        "mods = {n: m for n, m in sys.modules.items() if n.startswith('sepsys.')}\n"
        "print(sorted(mods), [n for n, m in mods.items() if type(m) is types.ModuleType])"
    )
    registered = [f"sepsys.{layer}" for layer in LAYERS]
    assert _python(code).decode().strip() == f"{registered!r} []"


def test_a_search_leaves_bounds_unloaded():
    # search reads ``bounds`` only for the pair family, through the lazy
    # module, so the other searches compile no ``bounds``
    code = (
        "import sys, types\n"
        "from sepsys import search\n"
        "search.max_nice_size(4, 2)\n"
        "print(type(sys.modules['sepsys.bounds']) is types.ModuleType)\n"
        "search.max_pair_family(4, 2)\n"
        "print(type(sys.modules['sepsys.bounds']) is types.ModuleType)"
    )
    assert _python(code).decode().split() == ["False", "True"]


def test_every_public_name_is_the_object_in_its_home_layer():
    for name in sepsys.__all__:
        home = importlib.import_module(f"sepsys.{sepsys._HOME[name]}")
        obj = getattr(sepsys, name)
        assert obj is getattr(home, name), name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
    # a name listed under two layers would be exported from only one
    assert len(sepsys.__all__) == sum(map(len, sepsys._EXPORTS.values()))


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from sepsys import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(sepsys.__all__)


def test_dir_lists_public_names_and_layers():
    listed = dir(sepsys)
    assert set(sepsys.__all__) <= set(listed)
    assert set(LAYERS) <= set(listed)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sepsys.no_such_name
    assert not hasattr(sepsys, "Value")  # core's own names stay in core


def test_values_unpickle_after_a_plain_import():
    fam = Family(3, (0b001, 0b010, 0b100))
    values = [fam, max_nice_size(3, 2), is_nice(fam, 2)]
    code = (
        "import sys, pickle, sepsys\n"
        "sys.stdout.buffer.write(pickle.dumps(pickle.loads(sys.stdin.buffer.read())))"
    )
    assert pickle.loads(_python(code, pickle.dumps(values))) == values


_FAM = Family(2, (0b01, 0b10))
# the public entry points that reject k = 0 or n = 1, each with its one message
_REJECTED = [
    ("k", "is_k_hypercompletely_separating", (_FAM, 0)),
    ("k", "is_k_hyperseparating", (_FAM, 0)),
    ("k", "is_nice", (_FAM, 0)),
    ("k", "find_separator", (_FAM, 0, 0)),
    ("k", "owns_unique_subsets", (_FAM, 0)),
    ("k", "pair_family_valid", ([], 2, 0)),
    ("k", "separator_table", (3, 0)),
    ("k", "pair_table", (3, 0)),
    ("k", "max_nice_size", (3, 0)),
    ("k", "exists_nice_of_size", (3, 0, 2)),
    ("k", "min_m_hyperseparating", (5, 0, 4)),
    ("k", "max_unique_subset_family", (3, 0)),
    ("k", "max_pair_family", (3, 0)),
    ("k", "k_prime", (4, 0)),
    ("k", "min_m_hcs", (5, 0)),
    ("k", "f_bounds", (5, 0)),
    ("n", "min_m_hcs", (1, 2)),
    ("n", "min_m_hyperseparating", (1, 2, 4)),
    ("n", "f_bounds", (1, 2)),
    ("n", "spencer_min", (1,)),
    ("n", "f2_exact", (1,)),
]


@pytest.mark.parametrize(
    "param, name, args", _REJECTED, ids=[f"{c[1]}_{c[0]}" for c in _REJECTED]
)
def test_every_layer_rejects_k_0_and_n_1_with_one_message(param, name, args):
    fn = getattr(sepsys, name, None) or getattr(verify, name)
    message = {"k": "k must be >= 1, got 0", "n": "n must be >= 2, got 1"}[param]
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == message
