"""The package's public surface: each name is declared once, by its module."""

import importlib
import inspect
from collections import Counter

import pytest

import abmorph

MODULES = ("analysis", "classify", "errors", "lift", "matrices", "periodic", "rank1", "words")


def module(name):
    return importlib.import_module(f"abmorph.{name}")


def test_package_all_is_unique_and_versioned():
    assert len(set(abmorph.__all__)) == len(abmorph.__all__)
    assert "__version__" in abmorph.__all__


def test_every_entry_resolves_and_none_is_a_module():
    for name in abmorph.__all__:
        assert not inspect.ismodule(getattr(abmorph, name)), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from abmorph import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(abmorph.__all__)


def test_each_name_listed_by_exactly_one_module():
    counts = Counter(name for mod in MODULES for name in module(mod).__all__)
    assert all(n == 1 for n in counts.values()), [k for k, n in counts.items() if n > 1]
    assert set(counts) == set(abmorph.__all__) - {"__version__"}


@pytest.mark.parametrize("mod", MODULES)
def test_module_lists_only_what_it_defines(mod):
    m = module(mod)
    for name in m.__all__:
        obj = getattr(m, name)
        assert getattr(abmorph, name) is obj
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == m.__name__, name


def test_report_enums_read_off_the_outcome_table():
    c = module("classify")
    assert c.ANSWERS == (
        c.ANSWER_ABELIAN_PERIODIC,
        c.ANSWER_PURE_ABELIAN_PERIODIC,
        c.ANSWER_NOT_ABELIAN_PERIODIC,
        c.ANSWER_UNKNOWN,
    )
    assert c.CERTAINTIES == (c.CERTAINTY_PROVED, c.CERTAINTY_BOUNDED_SEARCH)
