"""Every dpimage name that the acceptance tests and the benchmark worker use exists,
and every name the library defines is one the program calls.

tests/test_acceptance.py imports names from dpimage modules and from
tests/support.py, which imports its own. perfbench/worker.py reaches module
attributes (``codec.encode``, ``cli.main``, ...), wraps the methods its
METHODS table names, looked up in the class dict, and reads attributes of the
ledger in the observers of those methods. The files are parsed, not run, so a
deletion that would break any of them fails here in seconds.
"""

import ast
import importlib
from pathlib import Path

import pytest

import dpimage

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
SUPPORT = ROOT / "tests" / "support.py"
WORKER = ROOT / "perfbench" / "worker.py"
LIBRARY = ROOT / "src" / "dpimage"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) of each ``from dpimage[.x] import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpimage"
        for alias in node.names
    ]


def assigned_literal(tree: ast.Module, name: str):
    """The literal value of the module-level assignment ``name = ...``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {WORKER.name}")


def functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def observers(tree: ast.Module) -> dict[str, str]:
    """The traced name -> observer function table that ``install`` builds."""
    for node in ast.walk(functions(tree)["install"]):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "observers"
        ):
            return {k.value: v.id for k, v in zip(node.value.keys, node.value.values)}
    raise LookupError("install builds no observers table")


def self_attributes(function: ast.FunctionDef) -> set[str]:
    """Attributes an observer reads from ``args[0]``, the wrapped method's instance."""
    return {
        node.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Subscript)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "args"
        and isinstance(node.value.slice, ast.Constant)
        and node.value.slice.value == 0
    }


def worker_module_attributes(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, attribute) of each ``m.attr`` where m is a module the worker imports
    with ``from dpimage import m``."""
    modules = {
        alias.asname or alias.name: f"dpimage.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dpimage"
        for alias in node.names
    }
    return sorted(
        {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    )


def used_names(node: ast.AST) -> set[str]:
    """Every identifier under node: names, attribute names and imported names."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(n, fields[type(n)]) for n in ast.walk(node) if type(n) in fields}


def unreached(trees, roots) -> list[str]:
    """Top-level defs and classes of the modules in trees that no root reaches.

    The closure runs over bare names: a reached def or class reaches every
    name in its body, and each module-level statement other than a def,
    class or import is a root. A name shared with a method or an attribute
    counts as reached, so the check can miss a name but never reports a
    reached one.
    """
    defs, todo = {}, set(roots)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= used_names(node)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= set().union(*(used_names(node) for node in defs.get(name, ()))) - reached
    return sorted(set(defs) - reached)


def library_trees() -> list[ast.Module]:
    return [parse(path) for path in sorted(LIBRARY.glob("*.py"))]


def program_roots() -> set[str]:
    """cli.main and every name in the benchmark worker and the scripts."""
    callers = [WORKER, *sorted((ROOT / "scripts").glob("*.py"))]
    return {"main"}.union(*(used_names(parse(path)) for path in callers))


def test_acceptance_imports_exist():
    names = imported_names(parse(ACCEPTANCE))
    assert ("dpimage.privacy", "PrivacyParams") in names and ("dpimage.cli", "main") in names
    names += imported_names(parse(SUPPORT))
    assert ("dpimage.privacy", "dp_images") in names
    missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert not missing, f"test_acceptance.py or support.py imports deleted names: {missing}"


def test_library_is_what_the_program_calls():
    unused = unreached(library_trees(), program_roots())
    assert not unused, f"src/dpimage defines names the program never calls: {unused}"


def thread_names(tree: ast.Module) -> set[str]:
    """The names of threading and of codec's _Helper that tree imports or uses."""
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    return {"threading", "_Helper"} & (used_names(tree) | modules)


def test_codec_starts_every_thread():
    # one module decides how work is dealt to threads: train and the sweep's pass schedule
    users = {path.name: thread_names(parse(path)) for path in sorted(LIBRARY.glob("*.py"))}
    assert users.pop("codec.py") == {"threading", "_Helper"}
    others = {name: found for name, found in users.items() if found}
    assert not others, f"src/dpimage modules other than codec deal work to threads: {others}"
    detected = [thread_names(ast.parse(s)) for s in ("from threading import Lock", "codec._Helper()")]
    assert detected == [{"threading"}, {"_Helper"}]


def test_unreached_def_is_reported():
    # a twin that calls the library but that no caller reaches, beside the real library
    twin = ast.parse("def twin(model, image):\n    return encode_batch(model, [image])[0]\n")
    assert unreached([*library_trees(), twin], program_roots()) == ["twin"]
    # and on its own: reached through a module-level statement and a call chain only
    source = "X = used()\ndef used():\n    return helper()\ndef helper():\n    pass\ndef unused():\n    return helper()\n"
    assert unreached([ast.parse(source)], set()) == ["unused"]


def test_worker_module_attributes_exist():
    reached = worker_module_attributes(parse(WORKER))
    for expected in [("dpimage.cli", "main"), ("dpimage.metrics", "identity_embedding")]:
        assert expected in reached
    missing = [f"{m}.{a}" for m, a in reached if not hasattr(importlib.import_module(m), a)]
    assert not missing, f"perfbench/worker.py reaches deleted names: {missing}"


def test_worker_layers_are_modules():
    importlib.import_module("dpimage.cli")  # imports every layer, as the worker does
    layers = assigned_literal(parse(WORKER), "LAYERS")
    assert "privacy" in layers
    assert all(hasattr(dpimage, layer) for layer in layers)


def test_worker_methods_in_class_dict():
    tree = parse(WORKER)
    methods = assigned_literal(tree, "METHODS")
    assert methods["privacy.PrivacyBudgetLedger"] == ("load_csv", "save_csv")
    for owner, names in methods.items():
        layer, cls_name = owner.split(".")
        cls = vars(importlib.import_module(f"dpimage.{layer}"))[cls_name]
        # the worker wraps vars(cls)[name]: an inherited method would not do
        assert all(name in vars(cls) for name in names), owner


def test_worker_observers_read_existing_attributes():
    tree = parse(WORKER)
    table, defs = observers(tree), functions(tree)
    methods = {
        f"{owner}.{name}": owner
        for owner, names in assigned_literal(tree, "METHODS").items()
        for name in names
    }
    checked = set()
    for traced, observer in table.items():
        if traced not in methods:
            continue
        layer, cls_name = methods[traced].split(".")
        cls = getattr(importlib.import_module(f"dpimage.{layer}"), cls_name)
        for attr in self_attributes(defs[observer]):
            assert hasattr(cls, attr), f"{observer} reads {cls_name}.{attr}"
            checked.add(attr)
    assert "entries" in checked


@pytest.mark.parametrize(
    "walker, source",
    [
        (imported_names, "from dpimage.metrics import fed, gone"),
        (worker_module_attributes, "from dpimage import codec\ncodec.encode(1)\ncodec.gone(1)"),
    ],
    ids=["import", "attribute"],
)
def test_detects_a_deleted_name(walker, source):
    # the walkers report a name that does not exist, so the checks above have power
    found = walker(ast.parse(source))
    missing = [(m, n) for m, n in found if not hasattr(importlib.import_module(m), n)]
    assert len(found) == 2 and missing == [(found[0][0], "gone")]
