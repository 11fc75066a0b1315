"""Rules checked on the package source text, and on what importing it loads."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import types
import typing
from pathlib import Path

import pytest
from _support import ROOT, run_python

import deltatower

PACKAGE = Path(deltatower.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = ROOT / "perfbench"

# the numeric half, the float oracle: the one module that imports numpy
NUMERIC_MODULES = {"series.py"}


def test_no_assert_statements():
    # guards are real errors, so they still hold under ``python -O``
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def _load_time_nodes(node):
    """Every node that runs when the module loads (not inside a function)."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _load_time_nodes(child)


def _numeric_imports(tree) -> list[int]:
    """Lines of load-time imports of the series module or gridcheck."""
    lines = []
    for node in _load_time_nodes(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] if node.module else [base + alias.name for alias in node.names]
            if any(n in (".series", ".gridcheck") for n in names):
                lines.append(node.lineno)
    return lines


def test_no_module_imports_series_or_gridcheck_at_load():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name not in NUMERIC_MODULES
        for line in _numeric_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    # the rule sees every spelling it forbids
    for text in ("from .series import Series", "from . import gridcheck", "from . import series",
                 "if True:\n    from .gridcheck import properties",
                 "class A:\n    from .series import residual"):
        assert _numeric_imports(ast.parse(text)) != [], text
    assert _numeric_imports(ast.parse("def f():\n    from . import series")) == []


def _imports(tree, packages) -> list[int]:
    """Lines of every import of one of packages, at load time or not."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] in packages for n in names):
            lines.append(node.lineno)
    return lines


def _never_imported(modules, packages):
    """No source module named in modules imports one of packages, at load
    time or inside a function; and the rule sees every spelling it forbids."""
    paths = [path for path in SOURCES if path.name in modules]
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in _imports(ast.parse(path.read_text(encoding="utf-8"), str(path)), packages)
    ]
    assert len(paths) == len(modules) and found == []
    for p in packages:
        for text in (f"import {p}", f"import {p} as x", f"import os, {p}.sub",
                     f"from {p} import y", f"from {p}.sub import y as z",
                     f"if True:\n    import {p}", f"def f():\n    import {p} as x",
                     f"class A:\n    from {p} import y"):
            assert _imports(ast.parse(text), packages) != [], text
        assert _imports(ast.parse(f"import {p}_like"), packages) == []
        assert _imports(ast.parse(f"from . import {p}"), packages) == []


def test_only_the_series_module_imports_numpy():
    # at load time or inside a function: the float oracle is one module
    _never_imported({path.name for path in SOURCES} - NUMERIC_MODULES, {"numpy"})


def test_no_module_imports_dataclasses():
    # a CLI start that imports it also loads ``inspect``, which costs more
    # than the exact checks of a small tower
    _never_imported({path.name for path in SOURCES}, {"dataclasses"})


def test_no_module_imports_a_test_only_package():
    # references for the tests, never runtime dependencies
    _never_imported({path.name for path in SOURCES}, {"sympy", "hypothesis"})


def _forwarding_inits(tree) -> list[str]:
    """Every Record subclass whose __init__ does nothing but pass its own
    parameters, unchanged, to super().__init__ or Record.__init__: the
    generic constructor already fills the fields by position or by name."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or "Record" not in [ast.unparse(b) for b in cls.bases]:
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__" and len(fn.body) == 1):
                continue
            call = fn.body[0].value if isinstance(fn.body[0], ast.Expr) else None
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
            passed = [*call.args, *[k.value for k in call.keywords]] if isinstance(call, ast.Call) else [None]
            target = ast.unparse(call.func) if isinstance(call, ast.Call) else ""
            if target in ("super().__init__", "Record.__init__") and all(
                isinstance(a, ast.Name) and a.id in params for a in passed
            ):
                found.append(cls.name)
    return found


def test_no_record_init_only_forwards_its_fields():
    found = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _forwarding_inits(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    # the rule sees a forwarder, by position or by name, and passes an
    # __init__ that checks or builds a field
    for text in (
        "class A(Record):\n    def __init__(self, x, y=None):\n        super().__init__(x, y)",
        "class A(Record):\n    def __init__(self, x, *, y):\n        super().__init__(x, y=y)",
        "class A(Record):\n    def __init__(self, x):\n        Record.__init__(self, x)",
    ):
        assert _forwarding_inits(ast.parse(text)) == ["A"], text
    for text in (
        "class A(Record):\n    def __init__(self, x, c=None):\n        super().__init__(x, c or [])",
        "class A(Record):\n    def __init__(self, x):\n        if x:\n            raise ValueError\n"
        "        super().__init__(x)",
        "class A:\n    def __init__(self, x):\n        super().__init__(x)",
    ):
        assert _forwarding_inits(ast.parse(text)) == [], text


def test_import_loads_no_submodule():
    script = (
        "import sys, deltatower\n"
        "print(sorted(m for m in sys.modules if m.startswith('deltatower.') or m == 'numpy'))"
    )
    assert run_python(["-c", script], timeout=120).stdout.splitlines()[-1] == "[]"


def test_the_exponent_guard_holds_under_python_O():
    script = (
        "from deltatower.errors import BudgetExceeded\n"
        "from deltatower.polyring import Poly, var_b\n"
        "x = Poly.variable(var_b(1, 1)) ** (2**31 - 1)\n"
        "try:\n"
        "    x * x\n"
        "except BudgetExceeded:\n"
        "    print(__debug__, 'refused')\n"
    )
    assert run_python(["-O", "-c", script], timeout=120).stdout.splitlines()[-1] == "False refused"


NUMERIC_SIDE = ["numpy", "deltatower.series", "deltatower.gridcheck"]
EXACT_SIDE = [
    f"deltatower.{m}" for m in ("polyring", "elements", "tower", "operators", "relations", "textio")
]
# what each command leaves unloaded: tower build parses no element text,
# no grid command touches the exact side, and grid verify needs no numpy
UNLOADED = {
    "tower": [*NUMERIC_SIDE, "dataclasses", "inspect", "deltatower.textio", "deltatower.grid"],
    "seqred": [*NUMERIC_SIDE, *EXACT_SIDE, "json"],
    "verify": [*EXACT_SIDE, "numpy", "json"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "build", "--utype", "2,3,3", "--check"],
        ["grid", "seqred", "--s", "3,2,1", "--mode", "reductions"],
        ["grid", "verify", "--max-cells", "1"],
    ],
)
def test_exact_commands_load_no_numeric_module(argv):
    # and every command loads only the modules it runs
    unloaded = UNLOADED[argv[0] if argv[0] == "tower" else argv[1]]
    script = (
        "import sys\n"
        "from deltatower.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, [m for m in {unloaded!r} if m in sys.modules])"
    )
    assert run_python(["-c", script], timeout=120).stdout.splitlines()[-1] == "0 []"


def test_exports_are_the_module_attributes():
    exported = [name for names in deltatower._EXPORTS.values() for name in names.split()]
    assert sorted(deltatower.__all__) == sorted(exported) and len(set(exported)) == len(exported)
    for module, names in deltatower._EXPORTS.items():
        loaded = importlib.import_module(f"deltatower.{module}")
        for name in names.split():
            assert getattr(deltatower, name) is getattr(loaded, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        deltatower.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from deltatower import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from deltatower import *", namespace)
    assert all(namespace[name] is getattr(deltatower, name) for name in deltatower.__all__)


def _command_parsers(parser):
    """Every parser below parser that runs a command (has an ``fn`` default)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _command_parsers(sub)
    if "fn" in parser._defaults:
        yield parser


def test_every_option_is_read_by_its_command():
    from deltatower import cli

    commands = list(_command_parsers(cli._build_parser()))
    unread = [
        f"{parser.prog} {action.dest}"
        for parser in commands
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        and f"args.{action.dest}" not in inspect.getsource(parser._defaults["fn"])
    ]
    assert len(commands) == 4 and unread == []


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` would succeed."""
    loaded = importlib.import_module(module)
    if hasattr(loaded, name):
        return True
    return hasattr(loaded, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_the_benchmark_surface_resolves():
    # the benchmark imports, wraps and unpacks these names; a rename or a
    # deletion must fail here, not only when the benchmark runs
    tree = ast.parse((PERFBENCH / "ops.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deltatower"
        for alias in node.names
    ]
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(f"deltatower.{module}", attr) for _, module, attr in tracing.FUNCTIONS]
    missing = [f"{m}.{name}" for m, name in imported + wrapped if not _resolves(m, name)]
    for _, module, cls, method in tracing.METHODS:
        owner = getattr(importlib.import_module(f"deltatower.{module}"), cls, None)
        if not hasattr(owner, method):
            missing.append(f"deltatower.{module}.{cls}.{method}")
    assert len(imported) >= 10 and missing == []

    from deltatower.gridcheck import ALL_PROPERTIES

    assert all(len(entry) == 3 for entry in ALL_PROPERTIES)
    assert [name for name, _, _ in ALL_PROPERTIES] == tracing.GRID_PROPERTIES


def _perfbench_reads() -> dict[str, set[str]]:
    """module -> the names perfbench/ops.py imports from it or
    tracing.FUNCTIONS wraps there."""
    tree = ast.parse((PERFBENCH / "ops.py").read_text(encoding="utf-8"))
    reads: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("deltatower."):
            reads.setdefault(node.module, set()).update(alias.name for alias in node.names)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr in tracing.FUNCTIONS:
        reads.setdefault(f"deltatower.{module}", set()).add(attr)
    return reads


def test_the_forwards_to_series_are_only_what_perfbench_reads():
    # an exact module forwards (PEP 562) exactly the names perfbench reads
    # from it that live in ``series``: a forward cannot grow into API
    series = importlib.import_module("deltatower.series")
    reads = _perfbench_reads()
    forwards = {}
    for path in SOURCES:
        if path.stem in ("__init__", "__main__", "series"):
            continue
        module = importlib.import_module(f"deltatower.{path.stem}")
        moved = {
            name for name in reads.get(module.__name__, ())
            if getattr(getattr(module, name), "__module__", None) == series.__name__
        }
        forwarded = vars(module).get("_FORWARDED", ())
        assert set(forwarded) == moved and len(forwarded) == len(moved), path.name
        assert ("__getattr__" in vars(module)) == bool(moved), path.name
        for name in forwarded:
            assert getattr(module, name) is getattr(series, name), name
        if moved:
            forwards[path.stem] = sorted(forwarded)
            assert not hasattr(module, "Series") and not hasattr(module, "_terms"), path.name
    assert sum(map(len, forwards.values())) == 6, forwards


def _unresolved_hints(module) -> list[str]:
    """Every function and method defined in module (static and class methods
    and property getters included) whose annotations typing cannot resolve."""

    def defined(namespace, top):
        for obj in vars(namespace).values():
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield obj
            elif top and inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield from defined(obj, False)

    unresolved = []
    for fn in defined(module, True):
        try:
            typing.get_type_hints(fn)
        except Exception as exc:  # noqa: BLE001 - any failure to resolve is the finding
            unresolved.append(f"{module.__name__}.{fn.__qualname__}: {exc!r}")
    return unresolved


def test_every_annotation_resolves():
    # __main__ runs the CLI when imported; every other module is checked
    modules = [
        importlib.import_module("deltatower" if p.stem == "__init__" else f"deltatower.{p.stem}")
        for p in SOURCES
        if p.stem != "__main__"
    ]
    assert len(modules) == len(SOURCES) - 1
    assert [bad for m in modules for bad in _unresolved_hints(m)] == []
    # the rule sees a name the module never binds, on every kind of callable
    probe = types.ModuleType("probe")
    exec(
        "from __future__ import annotations\n"
        "def f(s: Series) -> None: ...\n"
        "class A:\n"
        "    @staticmethod\n"
        "    def g() -> Series: ...\n"
        "    @property\n"
        "    def p(self) -> Series: ...\n",
        probe.__dict__,
    )
    assert [line.split(":")[0] for line in _unresolved_hints(probe)] == [
        "probe.f", "probe.A.g", "probe.A.p"
    ]
