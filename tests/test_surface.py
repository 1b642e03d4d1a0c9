"""Every module-level name of ``dipc`` and every method and property of its
classes is used, and every default is overridden, by the package, a demo or
the benchmark, not only by tests; and every None default is left out by one
of them, so no None fork serves tests alone.

A name counts as used when some file under ``src/``, ``demos/`` or
``bench/`` loads it, reads it as an attribute, imports it (the package's
re-export in ``__init__`` aside) or spells it as a string, as the bench
tracer does.  Its own definition does not count.  Dataclass fields are not
checked: ``asdict`` reads them without naming them (``ConverseBound.slack_bits``
reaches the bounds run's ``converse_slack_bits`` result rows that way).  A defaulted parameter or dataclass
field counts as set when some call there of a callable of that name passes it
by keyword, by position or through ``*``/``**``.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dipc"

KEPT = {
    # readers of the files and decisions dipc produces
    "decode_identify", "read_results", "load_codebook",
    # numpy's PCG64 calls it to seed itself
    "generate_state",
    # the README quickstart prints it
    "max_type1",
}


def _definitions(tree):
    """(name, qualified name) of every module-level name and every method and
    property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((f.name, f"{node.name}.{f.name}") for f in node.body
                        if isinstance(f, ast.FunctionDef))


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
    """Name -> where dipc first defines it, as module.name or module.Class.name."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, qualified in _definitions(ast.parse(path.read_text())):
            defined.setdefault(name, f"{path.stem}.{qualified}")
    return defined


def test_every_module_level_name_is_used():
    used = set()
    for top in ("src", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used.update(_references(path, ast.parse(path.read_text())))
    unused = sorted(qualified for name, qualified in _defined().items()
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
    defaulted ones mapped to their default expressions) of every function and
    dataclass constructor."""
    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)
                              and not _is_init_false(s.value)]
                    yield (f"{prefix}{child.name}", child.name, [s.target.id for s in fields],
                           {s.target.id: s.value for s in fields if s.value is not None})
                yield from visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if in_class and not any(getattr(d, "id", None) == "staticmethod"
                                        for d in child.decorator_list):
                    positional = positional[1:]  # self or cls, bound by the attribute
                defaulted = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                defaulted.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                                 if d is not None)
                yield f"{prefix}{child.name}", child.name, positional, defaulted
                yield from visit(child, f"{prefix}{child.name}.", False)
    yield from visit(tree, f"{module}.", False)


def _defaults():
    """(callable name, parameter, its positional index or None, qualified
    name, whether the default is None) of every defaulted parameter and
    dataclass field of dipc."""
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, positional, defaulted in _signatures(path.stem,
                                                                   ast.parse(path.read_text())):
            for param, default in defaulted.items():
                index = positional.index(param) if param in positional else None
                is_none = isinstance(default, ast.Constant) and default.value is None
                yield name, param, index, f"{qualified}.{param}", is_none


def _calls(tree):
    """(callee name, positional arguments, keywords) of every call; a *args
    may fill any position and a **kwargs (keyword None) any keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


def _callers():
    """Every call in src/, demos/ and bench/."""
    return [call for top in ("src", "demos", "bench")
            for path in sorted((ROOT / top).rglob("*.py"))
            for call in _calls(ast.parse(path.read_text()))]


def test_every_default_is_set_by_some_caller():
    calls = _callers()
    unset = {qualified for name, param, index, qualified, _ in _defaults()
             if not any(called == name and (param in keywords or None in keywords
                                            or index is not None and index < positional)
                        for called, positional, keywords in calls)}
    unset = sorted(unset - UNSET_KEPT)
    assert not unset, f"defaults no caller in src/, demos/ or bench/ sets: {unset}"


def test_unset_kept_names_exist():
    assert UNSET_KEPT <= {qualified for _, _, _, qualified, _ in _defaults()}


def test_every_none_default_is_left_out_by_some_caller():
    # a None default that every caller overrides is a fork only tests take
    calls = _callers()
    always_set = sorted(
        qualified for name, param, index, qualified, is_none in _defaults()
        if is_none and not any(called == name and param not in keywords and None not in keywords
                               and (index is None or index >= positional)
                               for called, positional, keywords in calls))
    assert not always_set, f"None defaults that no caller in src/, demos/ or bench/ leaves out:" \
                           f" {always_set}"


def _public_parameters():
    """(name, parameter) of every parameter of every public callable of dipc."""
    import inspect
    import types

    import dipc

    return {(name, param) for name, obj in vars(dipc).items()
            if callable(obj) and not (name.startswith("_") or isinstance(obj, types.ModuleType))
            for param in inspect.signature(obj).parameters}


def test_every_integer_parameter_is_swept():
    # a public callable with a size, count or index parameter is in the sweep
    # of tests/test_integer_args.py or exempt from it with a reason
    from test_integer_args import EXEMPT, SWEEP, SWEPT_NAMES

    public = {(name, param) for name, param in _public_parameters() if param in SWEPT_NAMES}
    unswept = sorted(public - SWEEP.keys() - EXEMPT.keys())
    assert not unswept, f"in neither the sweep nor its exemptions: {unswept}"
    stale = sorted((SWEEP.keys() | EXEMPT.keys()) - public)
    assert not stale, f"swept or exempt, but not a public parameter: {stale}"


def test_every_count_reader_is_swept():
    # a public callable with an output-count parameter is in the sweep of
    # tests/test_counts.py or exempt from it with a reason
    from test_counts import COUNT_NAMES, EXEMPT, SWEEP

    public = {name for name, param in _public_parameters() if param in COUNT_NAMES}
    unswept = sorted(public - SWEEP.keys() - EXEMPT.keys())
    assert not unswept, f"in neither the counts sweep nor its exemptions: {unswept}"
    stale = sorted((SWEEP.keys() | EXEMPT.keys()) - public)
    assert not stale, f"swept or exempt, but not a public reader of counts: {stale}"
