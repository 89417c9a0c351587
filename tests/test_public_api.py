"""Public API: every exported name resolves, and the README examples run."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

MODULES = ("model", "perturbation", "coherence", "oracle", "analysis", "validation", "cli")

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
    assert functions == ["series_tables"]


def referenced_names(tree, skip=None):
    """Every name an AST reads, as a ``Name`` or as an ``Attribute``; not a
    string, a docstring or an import.  A name in ``skip`` is not counted
    inside its own top-level definition."""
    names = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if name is not None and not (skip and name == own and own in skip):
                names.add(name)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_public_function_and_class_has_a_reader(name):
    # a function or class in a layer's __all__ is read by the package's own
    # code outside its definition, or by a README example: no test-only
    # helper in the public API
    mod = importlib.import_module(f"thermaljcm.{name}")
    public = {attr for attr in mod.__all__
              if inspect.isfunction(getattr(mod, attr)) or inspect.isclass(getattr(mod, attr))}
    read = set()
    for path in sorted((ROOT / "src" / "thermaljcm").glob("*.py")):
        read |= referenced_names(ast.parse(path.read_text()),
                                 skip=public if path.stem == name else None)
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S):
        read |= referenced_names(ast.parse(block))
    assert sorted(public - read) == []


def attributes_read(tree):
    """Every attribute name an AST reads: ``x.name``, loaded."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", MODULES)
def test_every_public_dataclass_field_has_a_reader(name):
    # a field of a public dataclass is read as an attribute by the package's
    # own code, its class's methods included, or by a README example: no
    # field that only tests read
    mod = importlib.import_module(f"thermaljcm.{name}")
    exported = [getattr(mod, attr) for attr in mod.__all__]
    classes = [obj for obj in exported if inspect.isclass(obj) and dataclasses.is_dataclass(obj)]
    read = set()
    for path in sorted((ROOT / "src" / "thermaljcm").glob("*.py")):
        read |= attributes_read(ast.parse(path.read_text()))
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S):
        read |= attributes_read(ast.parse(block))
    assert [f"{cls.__name__}.{field.name}" for cls in classes
            for field in dataclasses.fields(cls) if field.name not in read] == []


def test_readme_python_blocks_run_in_order(capsys):
    # quick start, multi-temperature evaluation, exact solver: each block
    # continues the namespace of the one before it
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "row" in namespace and "rho00" in namespace


def test_cli_uses_no_private_name_of_another_layer():
    # the CLI maps a layer's LimitError to a field; a rule it needed a private
    # helper for would live in the wrong layer
    tree = ast.parse((ROOT / "src" / "thermaljcm" / "cli.py").read_text())
    layers = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "thermaljcm"
                                                 or node.module.startswith("thermaljcm.")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
                elif not node.module or node.module == "thermaljcm":
                    layers.add(alias.asname or alias.name)  # a module: from . import oracle
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in layers and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_cli_handlers_leave_each_rule_to_its_layer():
    # a layer refuses an input with a LimitError, which main maps to the
    # document field; a handler that names a model field itself, or catches
    # and re-wraps a layer's refusal, keeps a second copy of that rule
    source = (ROOT / "src" / "thermaljcm" / "cli.py").read_text()
    tree = ast.parse(source)
    copies = [f"imports {alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name == "EigenvalueTable"]
    if "LeakageError" in source:
        copies.append("names LeakageError")
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(handlers) == 5
    for handler in handlers:
        for node in ast.walk(handler):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("model.")):
                copies.append(f"{handler.name} names {node.value!r}")
            if isinstance(node, ast.Try):
                copies.append(f"{handler.name} has a try at line {node.lineno}")
    assert copies == []


def test_cli_handlers_write_nothing():
    # a handler takes only its config and returns its output; main alone
    # writes it, to stdout or --out alike, with no in-memory copy of the text
    tree = ast.parse((ROOT / "src" / "thermaljcm" / "cli.py").read_text())
    handlers = {node.name: [arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                                node.args.vararg, *node.args.kwonlyargs,
                                                node.args.kwarg) if arg]
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")}
    assert len(handlers) == 5
    assert {name: args for name, args in handlers.items() if len(args) != 1} == {}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert "io" not in imported


@pytest.mark.parametrize("name", ["perturbation", "oracle"])
def test_engines_take_their_trig_from_the_model_kernel(name):
    # both engines evaluate the Rabi blocks through model's one kernel: a
    # second np.sin or np.cos would be a second copy of it
    tree = ast.parse((ROOT / "src" / "thermaljcm" / f"{name}.py").read_text())
    trig = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("sin", "cos")
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "numpy" for alias in node.names]
    assert trig + [f"imports {n}" for n in imported if n in ("sin", "cos")] == []
