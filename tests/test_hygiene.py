"""Source hygiene a linter would check: unread imports, the package's __all__,
imports that stay within the declared runtime dependencies, frozen objects
written only by their own class, README naming only names and CLI flags
that exist, and README stating pyproject's numpy floor."""

import argparse
import ast
import builtins
import importlib
import re
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import helistar
from helistar import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for top in ("src/helistar", "tests", "demos") for path in (ROOT / top).rglob("*.py")
)


def unread_imports(tree: ast.Module, module: str | None = None) -> list[str]:
    """Names an import binds that the module never reads.

    __all__ entries count as reads. A literal __all__ is read from the source;
    a computed one from the live module, imported by its dotted name.
    """
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                read |= set(ast.literal_eval(node.value))
            except ValueError:
                read |= set(importlib.import_module(module).__all__)
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def module_name(path: Path) -> str | None:
    """Dotted name of a package source file; None for tests and demos."""
    if ROOT / "src" not in path.parents:
        return None
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_imports(path):
    assert unread_imports(ast.parse(path.read_text(), str(path)), module_name(path)) == []


def test_unread_import_is_caught():
    tree = ast.parse("import os\nfrom sys import argv, path as p\nprint(argv)\n")
    assert unread_imports(tree) == ["line 1: os", "line 2: p"]


def test_unread_import_is_caught_beside_a_computed_all(monkeypatch):
    source = (
        "import os\nfrom sys import argv as _argv, path\nfrom types import ModuleType as _M\n"
        "__all__ = [k for k, v in list(vars().items()) if k[0] != '_' and not isinstance(v, _M)]\n"
    )
    module = types.ModuleType("computed_all")
    exec(source, module.__dict__)
    assert module.__all__ == ["path"]
    monkeypatch.setitem(sys.modules, "computed_all", module)
    assert unread_imports(ast.parse(source), "computed_all") == ["line 1: os", "line 2: _argv"]


def test_all_lists_every_public_name():
    # __all__ is computed from the namespace, so this list is what holds the public names fixed
    assert sorted(helistar.__all__) == [
        "BandSpec", "BranchSolution", "CatalogEntry", "CatalogFormatError", "CatalogReport",
        "Classification", "HelistarError", "HelixParams", "MeshSegment", "ModuleOptions",
        "NetLayout", "ParameterError",
        "UniformityReport", "WindowError", "antiprism_tower", "build_report", "chord", "classify",
        "closure_determinant", "component_params", "enumerate_catalog",
        "export_modules_svg", "export_net_svg", "export_obj", "format_report", "helix_points",
        "prototype_faces", "read_catalog", "realize", "solve_band",
        "triangles_properly_intersect", "unfold_net", "verify_uniform",
        "vertex_neighbor_cycle", "winding_estimate", "write_catalog",
        "write_catalog_csv",
    ]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _constant(name: str) -> bool:
    return re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None


def unreferenced_names(trees: dict[str, ast.Module], wanted) -> list[str]:
    """Module-level functions, classes and constants of each named tree whose
    name wanted accepts, and that no tree reads, imports or names as an
    attribute outside their own definition."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id, node) for t in targets if isinstance(t, ast.Name)]
    dead = []
    for module, name, definition in defined:
        if not wanted(name):
            continue
        own = {id(n) for n in ast.walk(definition)}
        uses = (
            n
            for tree in trees.values()
            for n in ast.walk(tree)
            if id(n) not in own
            and (
                (isinstance(n, ast.Name) and n.id == name)
                or (isinstance(n, ast.Attribute) and n.attr == name)
                or (isinstance(n, ast.alias) and n.name == name)
            )
        )
        if next(uses, None) is None:
            dead.append(f"{module}.{name}")
    return dead


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in (ROOT / "src/helistar").rglob("*.py")}


def test_every_private_name_in_the_package_is_used():
    assert unreferenced_names(package_trees(), _private) == []


def test_unreferenced_private_name_is_caught():
    trees = {
        "a": ast.parse(
            "_USED = 1\n_DEAD: int = 2\n\ndef _helper():\n    return _helper() + _USED\n\n"
            "class _Shown:\n    pass\n\ndef __getattr__(name):\n    raise AttributeError(name)\n"
        ),
        "b": ast.parse("from .a import _Shown\n"),
    }
    assert unreferenced_names(trees, _private) == ["a._DEAD", "a._helper"]


def test_every_constant_in_the_package_is_read():
    # a constant that only tests or the bench read is a setting no code obeys
    assert unreferenced_names(package_trees(), _constant) == []


def test_unread_constant_is_caught():
    trees = {
        "a": ast.parse(
            "USED = 1\nLEFT_OVER: int = 256\nSELF_NAMED = SELF_NAMED if 0 else 2\nlower = 3\n\n"
            "def f(x):\n    return x + USED + b.SHOWN\n"
        ),
        "b": ast.parse("from .a import f\nSHOWN = 4\nFROM_B = 5\n"),
        "c": ast.parse("from .b import FROM_B\n"),
    }
    assert unreferenced_names(trees, _constant) == ["a.LEFT_OVER", "a.SELF_NAMED"]


SUBMODULES = {path.stem for path in (ROOT / "src/helistar").glob("*.py")} - {"__init__"}


def unbound_exports(module: types.ModuleType) -> list[str]:
    """Names the module's __all__ lists that the module does not bind."""
    return [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]


@pytest.mark.parametrize("name", sorted(SUBMODULES))
def test_every_name_in_all_is_bound(name):
    assert unbound_exports(importlib.import_module(f"helistar.{name}")) == []


def test_unbound_export_is_caught():
    module = types.ModuleType("planted")
    exec("__all__ = ['kept', 'deleted', 'LIMIT']\nLIMIT = 3\n\ndef kept():\n    pass\n", module.__dict__)
    assert unbound_exports(module) == ["deleted"]


def stale_references(readme: str, sources: dict[str, str]) -> list[str]:
    """Names the prose mentions that the package lacks.

    A backticked module.NAME in readme whose module is a helistar submodule
    must be an attribute of the imported submodule. A _private name in readme
    backticks, or in a docstring or comment of sources (module -> source),
    must be defined somewhere in sources: as a function, class, argument,
    assignment target or import; a pattern such as _cmd_* must be the prefix
    of one. A name preceded by a word character or * (U_0, *_next) is not a
    name. A CamelCase name (BandSpec, not NaN) anywhere in readme, or in a
    docstring or comment of sources, must be defined there too, or be a
    builtin.
    """
    private = re.compile(r"(?<![\w*])_[A-Za-z]\w*\*?")
    camel = re.compile(r"\b[A-Z][a-z0-9]+[A-Z][a-z]\w*")
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.alias):
                defined.add(node.asname or node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)

    def unknown(names: list[str]) -> list[str]:
        return [n for n in names if not any(d == n or n[-1] == "*" and d.startswith(n[:-1]) for d in defined)]

    def unknown_camel(text: str) -> list[str]:
        return [n for n in camel.findall(text) if n not in defined and not hasattr(builtins, n)]

    stale = []
    for quoted in re.findall(r"`([^`\n]+)`", readme):
        for module, name in re.findall(r"(?<![\w.])(?:helistar\.)?(\w+)\.(\w+)", quoted):
            if module in SUBMODULES and not hasattr(importlib.import_module(f"helistar.{module}"), name):
                stale.append(f"README.md: {module}.{name}")
        stale += [f"README.md: {name}" for name in unknown(private.findall(quoted))]
    stale += [f"README.md: {name}" for name in unknown_camel(readme)]
    for module, text in sources.items():
        docs = [
            ast.get_docstring(node) or ""
            for node in ast.walk(trees[module])
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        comments = [
            tok.string for tok in tokenize.generate_tokens(iter(text.splitlines(True)).__next__)
            if tok.type == tokenize.COMMENT
        ]
        prose = "\n".join(docs + comments)
        stale += [f"{module}: {name}" for name in unknown(private.findall(prose)) + unknown_camel(prose)]
    return stale


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in (ROOT / "src/helistar").rglob("*.py")}


def test_prose_names_only_what_the_package_has():
    assert stale_references((ROOT / "README.md").read_text(), package_sources()) == []


def test_stale_reference_is_caught():
    sources = {
        "planted": '"""Runs _candidates, then _bisect and _cmd_*; U_0 and *_next are not names."""\n\n'
        "def _bisect(_x):\n    return _x  # then _accept\n\n\ndef _cmd_solve():\n    pass\n"
    }
    readme = "See `closure_solver.GUIDED_LANES`, `closure_solver.MIN_A`, `_bisect`, `_guided_*` and `_guided_bisect`.\n"
    assert stale_references(readme, sources) == [
        "README.md: closure_solver.GUIDED_LANES", "README.md: _guided_*", "README.md: _guided_bisect",
        "planted: _candidates", "planted: _accept",
    ]


def test_stale_camel_case_name_is_caught():
    sources = {
        "planted": '"""Reads an OffsetTriple from a BandSpec; NaN and ValueError are not stale."""\n\n'
        "class BandSpec:\n    pass  # not a SolverOptions\n"
    }
    readme = "A `BandSpec` is a band; OffsetTriple and RuntimeError are named in prose.\n"
    assert stale_references(readme, sources) == [
        "README.md: OffsetTriple", "planted: OffsetTriple", "planted: SolverOptions",
    ]


# flags the CLI once had: README may name them only as removed, and main refuses them
REMOVED_FLAGS = ("--grid-points", "--residual-tol")


def cli_flags() -> set[str]:
    """Every option string of every subcommand of the CLI's parser."""
    (subcommands,) = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for parser in subcommands.choices.values() for a in parser._actions for flag in a.option_strings}


def unknown_flags(readme: str, flags: set[str]) -> list[str]:
    """--flags in readme's code spans and fenced blocks that are neither in flags nor in REMOVED_FLAGS.

    A line of code that runs pip names pip's flags, not the CLI's, and is skipped.
    """
    quoted = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    lines = [line for text in quoted for line in text.strip("`").splitlines() if not line.startswith("pip ")]
    named = {flag for line in lines for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", line)}
    return sorted(named - flags - set(REMOVED_FLAGS))


def test_readme_names_only_flags_the_cli_has():
    assert unknown_flags((ROOT / "README.md").read_text(), cli_flags()) == []


@pytest.mark.parametrize("flag", REMOVED_FLAGS)
def test_a_removed_flag_is_refused(flag, capsys):
    assert flag not in cli_flags()
    assert cli.main(["solve", "--strips", "5", "--shift", "2", flag, "1000"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_flag_is_caught():
    readme = (
        "Use `--json`, `--grid-points N` and `--edge-mm 1e308`, not `--stale-flag`.\n"
        "```\nhelistar solve --strips 5 --planted\npip install . --no-deps\n```\n"
        "But --prose-only is not code, and `pip install --user` is pip's.\n"
    )
    assert unknown_flags(readme, {"--json", "--strips", "--edge-mm"}) == ["--planted", "--stale-flag"]


def _state_owner(node: ast.AST) -> ast.expr | None:
    """x when node writes x's own state: object.__setattr__(x, ...) (x '' without
    arguments), x.__dict__[key] = value or x.__dict__.update(...); else None."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
        return node.args[0] if node.args else ast.Name("")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "update":
        written = node.func.value
    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        written = node.value
    else:
        return None
    return written.value if isinstance(written, ast.Attribute) and written.attr == "__dict__" else None


def foreign_frozen_writes(tree: ast.Module) -> list[str]:
    """Writes to the state of an x that is not self (_state_owner): a frozen object,
    or the values it caches, written from outside its own class."""
    owners = [(node.lineno, x) for node in ast.walk(tree) if (x := _state_owner(node)) is not None]
    owners.sort(key=lambda write: write[0])
    return [f"line {line}: {ast.unparse(x)}" for line, x in owners if not (isinstance(x, ast.Name) and x.id == "self")]


@pytest.mark.parametrize("path", sorted((ROOT / "src/helistar").rglob("*.py")), ids=lambda p: p.name)
def test_frozen_objects_are_written_only_by_their_own_class(path):
    assert foreign_frozen_writes(ast.parse(path.read_text(), str(path))) == []


def test_foreign_frozen_write_is_caught():
    # a write to the instance dict sets a cached value behind the class's back; a read or
    # another dict's update is no write, and a class may fill the dict of the self it builds
    tree = ast.parse(
        "class C:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n\n"
        "def solve(branch):\n    object.__setattr__(branch, 'dihedrals', ())\n"
        "    object.__setattr__(branch.params, 'r', 1.0)\n\n"
        "class D:\n    @classmethod\n    def made(cls):\n        self = cls()\n"
        "        self.__dict__.update(x=1)\n        self.__dict__['y'] = 2\n        return self\n\n"
        "def cache(branch, seen):\n    branch.__dict__['residual'] = 0.0\n    branch.params.__dict__.update(r=1.0)\n"
        "    seen.update(branch.__dict__)\n    return branch.__dict__['residual']\n"
    )
    assert foreign_frozen_writes(tree) == [
        "line 6: branch", "line 7: branch.params", "line 18: branch", "line 19: branch.params",
    ]


def imports_outside_all(tree: ast.Module, package: str) -> list[str]:
    """Names the package's __init__ imports from a submodule with an __all__ that omits them."""
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = getattr(importlib.import_module(f"{package}.{node.module}"), "__all__", None)
            if exported is not None:
                missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    return missing


def test_package_imports_are_in_each_submodule_all():
    tree = ast.parse(Path(helistar.__file__).read_text())
    assert imports_outside_all(tree, "helistar") == []


def test_import_outside_all_is_caught():
    tree = ast.parse("from .realization import MAX_WINDOW, realize\nfrom . import cli\n")
    assert imports_outside_all(tree, "helistar") == ["realization.MAX_WINDOW"]


def foreign_imports(tree: ast.Module, allowed: set[str]) -> list[str]:
    """Absolute imports whose top-level package is not stdlib, helistar or allowed."""
    allowed = allowed | set(sys.stdlib_module_names) | {"helistar"}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    return [f"line {line}: {name}" for line, name in names if name.partition(".")[0] not in allowed]


def test_runtime_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}
    assert declared == {"numpy"}
    for path in sorted((ROOT / "src/helistar").rglob("*.py")):
        assert foreign_imports(ast.parse(path.read_text(), str(path)), declared) == [], path


def test_foreign_import_is_caught():
    tree = ast.parse("import os, numpy\nfrom scipy.optimize import bisect\nfrom . import cli\n")
    assert foreign_imports(tree, {"numpy"}) == ["line 2: scipy.optimize"]


def numpy_floors(readme: str, dependencies: list[str]) -> tuple[str | None, str | None]:
    """The numpy version floor that readme states (as "numpy >= X") and the one a dependency list requires."""
    stated = re.search(r"numpy\s*(?:>=|≥)\s*(\d+(?:\.\d+)*)", readme)
    required = [m[1] for dep in dependencies if (m := re.fullmatch(r"numpy\s*>=\s*(\d+(?:\.\d+)*)", dep))]
    return stated and stated[1], required[0] if required else None


def test_readme_states_the_numpy_floor_of_pyproject():
    tomllib = pytest.importorskip("tomllib")
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    stated, required = numpy_floors((ROOT / "README.md").read_text(), dependencies)
    assert stated is not None and stated == required


def test_numpy_floor_drift_is_caught():
    assert numpy_floors("Needs Python 3.10+ and numpy >= 2.0.", ["numpy>=1.24"]) == ("2.0", "1.24")
    assert numpy_floors("Needs numpy ≥ 2.0.", ["numpy >= 2.0"]) == ("2.0", "2.0")
    assert numpy_floors("Needs Python 3.10+ and numpy.", ["numpy"]) == (None, None)


def test_solving_never_loads_scipy():
    package_root = str(Path(helistar.__file__).resolve().parent.parent)
    code = (
        f"import sys\nsys.path.insert(0, {package_root!r})\n"
        "import helistar, helistar.cli\n"
        "helistar.solve_band(helistar.BandSpec(5, 2))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_solving_never_loads_numpy_polynomial():
    # guards against a return of the run-time eigen-solve: the solver brackets
    # every root analytically, and the colleague matrix is a test oracle only
    package_root = str(Path(helistar.__file__).resolve().parent.parent)
    code = (
        f"import sys\nsys.path.insert(0, {package_root!r})\n"
        "import helistar, helistar.cli\n"
        "helistar.solve_band(helistar.BandSpec(5, 2))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
