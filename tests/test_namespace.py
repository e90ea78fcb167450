"""The lazy package namespace exposes what the eager one did."""

import importlib

import pytest

import stimpairs


def test_every_public_name_is_the_defining_modules_object():
    for name in stimpairs.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"stimpairs.{stimpairs._MODULE_OF[name]}")
        assert getattr(stimpairs, name) is getattr(module, name), name


def test_all_is_the_export_table_plus_version():
    names = [n for names in stimpairs._EXPORTS.values() for n in names]
    assert len(set(names)) == len(names) == 52
    assert set(stimpairs.__all__) == set(names) | {"__version__"}


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(stimpairs))
    assert set(stimpairs.__all__) <= listed
    assert set(stimpairs._EXPORTS) <= listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'stimpairs' has no attribute 'no_such_name'$"):
        stimpairs.no_such_name
    assert not hasattr(stimpairs, "cli_main")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from stimpairs import *", namespace)
    assert set(stimpairs.__all__) <= set(namespace)
    assert namespace["FockVector"] is stimpairs.fock.FockVector
    assert namespace["__version__"] == stimpairs.__version__


def test_package_attributes_still_work():
    assert hasattr(stimpairs, "__path__")
    assert stimpairs.__version__ == "0.1.0"
    assert stimpairs.tomography is importlib.import_module("stimpairs.tomography")

