"""Every module-level name of ``dipc`` is used, and every default is
overridden, by the package, a demo or the benchmark, not only by tests.

A name counts as used when some file under ``src/``, ``demos/`` or
``bench/`` loads it, reads it as an attribute, imports it (the package's
re-export in ``__init__`` aside) or spells it as a string, as the bench
tracer does.  Its own definition does not count.  A defaulted parameter or
dataclass field counts as set when some call there of a callable of that
name passes it by keyword, by position or through ``*``/``**``.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dipc"

KEPT = {
    # the paper's bookkeeping
    "typical_log_size", "collision_bound_check", "dif_rate",
    # readers of the files and decisions dipc produces
    "decode_identify", "read_results", "load_codebook", "read_plot_data",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _references(path, tree):
    reexport = path == PACKAGE / "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias) and not reexport:
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _defined():
    """Module-level name -> the module defining it."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text())):
            defined.setdefault(name, path.stem)
    return defined


def test_every_module_level_name_is_used():
    used = set()
    for top in ("src", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used.update(_references(path, ast.parse(path.read_text())))
    unused = sorted(f"{module}.{name}" for name, module in _defined().items()
                    if name not in used | KEPT and not name.startswith("__"))
    assert not unused, f"defined in dipc but used only by tests: {unused}"


def test_kept_names_exist():
    assert KEPT <= set(_defined())


# Defaulted parameters that no caller in the package, a demo or the benchmark
# sets, kept because a user sets them.
UNSET_KEPT = {"cli.main.argv"}  # the command line itself when None


def _is_init_false(value):
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _is_dataclass(node):
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _signatures(module, tree):
    """(qualified name, callable name, parameters in positional order, the
    defaulted ones) of every function and dataclass constructor."""
    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)
                              and not _is_init_false(s.value)]
                    yield (f"{prefix}{child.name}", child.name, [s.target.id for s in fields],
                           [s.target.id for s in fields if s.value is not None])
                yield from visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if in_class and not any(getattr(d, "id", None) == "staticmethod"
                                        for d in child.decorator_list):
                    positional = positional[1:]  # self or cls, bound by the attribute
                defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                yield f"{prefix}{child.name}", child.name, positional, defaulted
                yield from visit(child, f"{prefix}{child.name}.", False)
    yield from visit(tree, f"{module}.", False)


def _defaults():
    """(callable name, parameter, its positional index or None, qualified
    name) of every defaulted parameter and dataclass field of dipc."""
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, positional, defaulted in _signatures(path.stem,
                                                                   ast.parse(path.read_text())):
            for param in defaulted:
                index = positional.index(param) if param in positional else None
                yield name, param, index, f"{qualified}.{param}"


def _calls(tree):
    """(callee name, positional arguments, keywords) of every call; a *args
    may fill any position and a **kwargs (keyword None) any keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


def test_every_default_is_set_by_some_caller():
    calls = [call for top in ("src", "demos", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))
             for call in _calls(ast.parse(path.read_text()))]
    unset = {qualified for name, param, index, qualified in _defaults()
             if not any(called == name and (param in keywords or None in keywords
                                            or index is not None and index < positional)
                        for called, positional, keywords in calls)}
    unset = sorted(unset - UNSET_KEPT)
    assert not unset, f"defaults no caller in src/, demos/ or bench/ sets: {unset}"


def test_unset_kept_names_exist():
    assert UNSET_KEPT <= {qualified for _, _, _, qualified in _defaults()}
