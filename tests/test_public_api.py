"""Public API: every exported name resolves, and the README examples run."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

MODULES = ("model", "perturbation", "coherence", "oracle", "analysis", "validation", "cli")

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"thermaljcm.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
    exec(f"from thermaljcm.{name} import *", {})


def test_package_star_import():
    namespace = {}
    exec("from thermaljcm import *", namespace)
    import thermaljcm

    assert set(thermaljcm.__all__) <= set(namespace)


def test_perturbation_has_one_series_entry_point():
    from thermaljcm import perturbation

    functions = [attr for attr in perturbation.__all__
                 if inspect.isfunction(getattr(perturbation, attr))]
    assert functions == ["poisson_log_weight", "series_tables"]


def test_readme_python_blocks_run_in_order(capsys):
    # quick start, multi-temperature evaluation, exact solver: each block
    # continues the namespace of the one before it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "row" in namespace and "rho00" in namespace
