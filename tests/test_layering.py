"""The package's modules form one stack: each imports only from modules below it."""

import ast
from pathlib import Path

import intervalfp

PACKAGE = Path(intervalfp.__file__).parent
# Lowest layer first.  __init__ re-exports everything and is not a layer.
LAYERS = ("fpformat", "roundflag", "interval", "semantics", "oracle", "harness", "cli", "__main__")


def _package_imports(tree: ast.AST):
    """(line, imported module) for every import of a package module,
    including imports inside functions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("intervalfp"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                yield node.lineno, parts[0]
            else:  # from . import x
                for alias in node.names:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "intervalfp" and len(parts) > 1:
                    yield node.lineno, parts[1]


def layering_violations() -> list[str]:
    found = []
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for line, target in _package_imports(tree):
            if target not in LAYERS or LAYERS.index(target) >= LAYERS.index(name):
                found.append(f"{name} -> {target} (line {line})")
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_only_go_down_the_stack():
    assert layering_violations() == []


def test_the_check_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    from .harness import ieee_reference\n")
    assert list(_package_imports(tree)) == [(2, "harness")]


def test_the_oracle_imports_construction_and_what_it_checks():
    """The oracle states meanings and rounds on its own: from the package it
    takes value and result construction, and the two functions under check."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("intervalfp"))
             for alias in node.names}
    assert names == {"FloatFormat", "Fp", "FpKind", "ExtInterval", "OpKind", "ZeroMode",
                     "fp_interval_op", "interpret"}
    borrowed = {"round", "round_both", "round_flagged", "next_up", "next_down", "max_finite",
                "min_pos", "to_rational", "lo_ext", "hi_ext"}
    for name in ("oracle", "harness"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert used & borrowed == set(), name


# (module, name) imported without a use: roundflag re-exports the word demo's
# last step, which bench/workloads.py reads as `roundflag.recover_bounds`
RE_EXPORTS = {("roundflag", "recover_bounds")}


def unused_imports(tree: ast.AST, module: str) -> list[str]:
    """'module.name (line n)' for every name an import binds and the module
    never reads, `from __future__` aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{module}.{name} (line {line})" for name, line in bound.items()
            if name not in read and (module, name) not in RE_EXPORTS]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for name in LAYERS:
        found += unused_imports(ast.parse((PACKAGE / f"{name}.py").read_text()), name)
    assert found == []


def test_the_unused_import_check_sees_leftovers():
    tree = ast.parse("from functools import partial\nfrom .interval import _OPS, apply_op\n"
                     "import os.path\n\ndef f(x):\n    return apply_op(x)\n")
    assert unused_imports(tree, "m") == ["m.partial (line 1)", "m._OPS (line 2)", "m.os (line 3)"]
    assert unused_imports(ast.parse("from .fpformat import recover_bounds\n"), "roundflag") == []


def unread_private_names(trees: dict) -> list[str]:
    """'module._X (line n)' for every module-level private name (`_X = ...`)
    that neither its own module nor a module importing it from there reads.
    `trees` maps module names to their parsed source."""
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (name for target in targets for name in ast.walk(target)):
                if isinstance(name, ast.Name) and name.id[:1] == "_" and name.id[:2] != "__":
                    defined[module, name.id] = node.lineno
    read = set()
    for module, tree in trees.items():
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {(module, name) for name in loads}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                read |= {(node.module, alias.name) for alias in node.names
                         if (alias.asname or alias.name) in loads}
    return [f"{module}.{name} (line {line})" for (module, name), line in defined.items()
            if (module, name) not in read]


def test_every_private_module_name_is_read():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert unread_private_names(trees) == []


def test_the_private_name_check_sees_leftovers():
    trees = {"m": ast.parse("_A, _B = 1, 2\n_C: int = 3\n_D = 4\n__all__ = []\n\n"
                            "def f():\n    _E = _A\n    return _E\n"),
             "n": ast.parse("from .m import _C, _D as d\n\nprint(_C)\n")}
    assert unread_private_names(trees) == ["m._B (line 1)", "m._D (line 3)"]


def test_the_interval_layer_has_no_rounding_of_its_own():
    """interval.py rounds through the format layer's one core: `_enclose` is
    imported from fpformat, and interval defines no rounding function and
    divides no integer at an ulp (no divmod)."""
    tree = ast.parse((PACKAGE / "interval.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "fpformat"
                for alias in node.names}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_enclose" in imported
    assert defined & {"_enclose", "_nearest"} == set()
    assert "divmod" not in called


def test_the_flag_rule_and_the_bracket_are_stated_once():
    """The neighbour steps (`_away`, `_toward`), the flag rule
    (`_round_cut`) and the bracket builder (`_bracket`) live in fpformat
    alone: no other module defines them or reads the steps, and roundflag
    reads no RoundFlag member by name, so the word demo takes its flag and
    its bracket from the library's own arithmetic."""
    steps, shared = {"_away", "_toward"}, {"_away", "_toward", "_round_cut", "_bracket"}
    members = {flag.name for flag in intervalfp.RoundFlag}
    for name in LAYERS[1:]:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert (read | imported) & steps == set(), name
        assert defined & shared == set(), name
        if name == "roundflag":
            attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert attrs & members == set()
            assert (read | imported) & {f"_{member}" for member in members} == set()


def raw_fp_builds(tree: ast.AST) -> list[int]:
    """Lines that build an Fp past its class call, where the `built` fixture
    would not see it: `tuple.__new__` handed `Fp` (called, or bound by a
    partial), or `Fp.__new__`, which skips `Fp.__init__`."""
    def named(node, owner, attr):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == owner)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            parts = [node.func, *node.args]
            if any(named(part, "tuple", "__new__") for part in parts) and any(
                    isinstance(arg, ast.Name) and arg.id == "Fp" for arg in node.args):
                lines.append(node.lineno)
        elif named(node, "Fp", "__new__"):
            lines.append(node.lineno)
    return lines


def test_only_the_format_layer_builds_an_fp_past_its_class_call():
    """fpformat's one unchecked builder, `_build`, is the only path past
    `Fp(...)`; the `built` fixture wraps it and `Fp.__init__`, so no build
    escapes it."""
    for name in LAYERS:
        found = raw_fp_builds(ast.parse((PACKAGE / f"{name}.py").read_text()))
        assert len(found) == (name == "fpformat"), (name, found)


def test_the_raw_build_check_sees_each_spelling():
    tree = ast.parse("x = tuple.__new__(Fp, f)\nb = partial(tuple.__new__, Fp)\ny = Fp.__new__(Fp, *f)\n"
                     "z = tuple.__new__(ExtInterval, (f, x, x))\n")
    assert raw_fp_builds(tree) == [1, 2, 3]
