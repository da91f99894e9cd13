"""The public surface: each module's __all__ is importable, and the package exports the pipeline only."""

import importlib

import pytest

import ddfwsc

MODULES = ("analysis", "cli", "combiners", "fading", "link", "simulator", "validation")

PIPELINE = {"ClosedFormContext", "aber_wsc1", "aber_wsc2", "aber_asymptotic_wsc2", "optimize_beta",
            "SchemeId", "SystemParams", "SimConfig", "BerEstimate", "run_simulation", "sweep", "wilson_interval"}


@pytest.mark.parametrize("name", MODULES)
def test_module_star_import(name):
    module = importlib.import_module(f"ddfwsc.{name}")
    namespace = {}
    exec(f"from ddfwsc.{name} import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


def test_package_exports_the_pipeline():
    assert set(ddfwsc.__all__) == PIPELINE | {"__version__"}
    assert len(ddfwsc.__all__) == len(PIPELINE) + 1
    namespace = {}
    exec("from ddfwsc import *", namespace)
    assert namespace.keys() - {"__builtins__"} == PIPELINE | {"__version__"}
