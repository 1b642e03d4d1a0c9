"""Every module-level name of ``dipc`` is used by the package, a demo or the
benchmark, not only by tests.

A name counts as used when some file under ``src/``, ``demos/`` or
``bench/`` loads it, reads it as an attribute, imports it (the package's
re-export in ``__init__`` aside) or spells it as a string, as the bench
tracer does.  Its own definition does not count.
"""

import ast
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
