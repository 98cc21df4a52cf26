"""Source hygiene: no module in the package imports a name it never
uses, no module imports dataclasses and importing the command line
loads neither dataclasses nor inspect, every public function has a
caller in the package or is exported, every exemption from that still names a defined function
with no caller, every module-level private function or class has a use
in the package, every GroupElement is built by WitnessContext from a
word over A, A^-1 and C, the isotropic box walk is named only in
quadform and the tests, every function the benchmark's tracer looks up
by name exists, and the counts its tracer reads off return values match
the real results.  The package's __init__.py is exempt from the first check,
since its imports are the public re-exports, and so is `from __future__`."""
import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import orthomono
from orthomono import cli
from orthomono.quadform import isotropic_search
from orthomono.witness import (WitnessContext, _gamma_pairs,
                               arithmeticity_report,
                               integral_reflection_vectors,
                               span_rank_witness,
                               unipotent_from_reflections)

from conftest import BASE_F, BASE_G

PACKAGE = pathlib.Path(orthomono.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_finds_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, List\n"
                           "x: List = os.sep\n") == ["line 2: Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def _fraction_uses(source: str) -> list[str]:
    """The lines of source that import the fractions module or name
    Fraction, as a name or an attribute."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
                alias.name == "fractions" for alias in node.names):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "Fraction" or \
                isinstance(node, ast.Attribute) and node.attr == "Fraction":
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_finds_a_fraction_use():
    assert _fraction_uses("import fractions\nx = fractions.Fraction(1)\n"
                          "from fractions import Fraction as F\n"
                          "y: Fraction = F(2)\n# a Fraction in a comment\n"
                          ) == ["line 1", "line 2", "line 3", "line 4"]


# the modules that hold a value that is not an integer: an inverse's
# entries, the congruence diagonal and the standard-basis Gram
FRACTION_MODULES = {"linalg.py", "quadform.py"}


def test_witness_hunt_builds_no_fraction():
    # the witness hunt and every other kernel run on int matrices over the
    # integral cyclic Gram
    uses = {p.name: _fraction_uses(p.read_text())
            for p in sorted(PACKAGE.glob("*.py"))
            if p.name not in FRACTION_MODULES}
    assert {name: lines for name, lines in uses.items() if lines} == {}
    assert "witness.py" in uses and "__init__.py" in uses


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports anywhere in source,
    inside functions too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_finds_imported_modules():
    assert _imported_modules("import os.path\nfrom . import linalg\n"
                             "from dataclasses import dataclass\n"
                             "def f():\n    import inspect\n") \
        == {"os", "dataclasses", "inspect"}


def test_no_module_imports_dataclasses():
    # its import loads inspect, ast, dis and tokenize, and each class it
    # builds execs generated methods, all at start-up: records are
    # NamedTuples or small classes instead
    found = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if "dataclasses" in _imported_modules(p.read_text())]
    assert found == []


def test_start_up_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import orthomono.cli\n"
            "print(sorted({'dataclasses', 'inspect'}\n"
            "             & (set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout == "[]\n"


# public functions with no caller in the package that stay, and why
UNCALLED_KEPT = {
    "isotropic_search": "perfbench/tracer.py spans it by name, and the "
                        "tests use it as the reference box search",
    "parse_report": "the reader of the canonical report text that "
                    "serialize_report writes",
}


def _local_names(func) -> set[str]:
    """The names a function binds itself: its parameters, and the targets
    it assigns, loops over or deletes, nested scopes included."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    names.update(node.id for node in ast.walk(func)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, (ast.Store, ast.Del)))
    return names


def _used_names(node, local=frozenset()) -> set[str]:
    """The names node reads, as a name or an attribute, leaving out a name
    read inside a function that binds it: that is a local variable, not a
    use of the module-level function of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | _local_names(node)
    used = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in local:
        used.add(node.id)
    elif isinstance(node, ast.Attribute):
        used.add(node.attr)
    for child in ast.iter_child_nodes(node):
        used |= _used_names(child, local)
    return used


def _unused(sources: dict[str, str], defines, exempt=()) -> list[str]:
    """The names that the module-level statements of the given sources
    define, as defines(statement) lists them, less those exempt names,
    that no source reads, as a name or an attribute."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update((name, module) for node in tree.body
                       for name in defines(node) if name not in exempt)
        used |= _used_names(tree)
    return sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in used)


def _uncalled_functions(sources: dict[str, str], exported) -> list[str]:
    """Module-level public functions of the given sources whose name no
    source uses, as a name or an attribute, and that are not exported."""
    return _unused(sources, lambda node: [node.name] if isinstance(
        node, ast.FunctionDef) and not node.name.startswith("_") else [],
        exported)


def _orphaned_private(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes of the given sources
    whose name no source uses, as a name or an attribute."""
    return _unused(sources, lambda node: [node.name] if isinstance(
        node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") else [])


def _constant_names(node) -> list[str]:
    """The UPPER_CASE names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and name.id.isupper()]


def test_finds_an_uncalled_function():
    sources = {"a.py": "def f():\n    return g()\n\ndef g():\n    pass\n",
               "b.py": "def h():\n    pass\n\ndef _k():\n    pass\n"}
    assert _uncalled_functions(sources, ()) == ["a.py: f", "b.py: h"]
    assert _uncalled_functions(sources, ("f",)) == ["b.py: h"]
    # a local variable or parameter of the same name is no use of it
    sources = {"a.py": "def rank():\n    pass\n\ndef f(x, h):\n"
                       "    rank = x\n    return rank + h\n\n"
                       "def h():\n    pass\n",
               "b.py": "from a import f\nf(1, 2)\n"}
    assert _uncalled_functions(sources, ()) == ["a.py: h", "a.py: rank"]


def test_every_public_function_has_a_caller_or_is_exported():
    sources = {p.name: p.read_text() for p in MODULES}
    exported = set(orthomono.__all__) | set(UNCALLED_KEPT)
    assert _uncalled_functions(sources, exported) == []


def test_finds_an_orphaned_private_helper():
    sources = {"a.py": "def _f():\n    return _g()\n\ndef _g():\n    pass\n"
                       "\nclass _K:\n    pass\n\ndef h(_m):\n    return _m\n",
               "b.py": "import a\na._f\n\ndef _m():\n    pass\n"
                       "\nclass _L:\n    pass\n\nx = [_L]\n"}
    # _K and _m have no use: h's parameter _m is a local name
    assert _orphaned_private(sources) == ["a.py: _K", "b.py: _m"]


def test_every_private_helper_has_a_use_in_the_package():
    assert _orphaned_private({p.name: p.read_text() for p in MODULES}) == []


def test_finds_a_stale_constant():
    sources = {"a.py": "CAP = 5\nLEFT: int = 2\nX, _Y = 1, 2\n"
                       "lower = 3\n\ndef f(n):\n    return n <= CAP\n",
               "b.py": "import a\nBOUND = a.X\nCAP = 4\n"}
    # a constant is read by name or as an attribute; its own assignment
    # is no read, and neither is a lower-case name
    assert _unused(sources, _constant_names) == ["a.py: LEFT", "a.py: _Y",
                                                 "b.py: BOUND"]


def test_every_constant_is_read_in_the_package():
    # a cap or table that outlives its last reader goes with it; the one
    # exception is corpus's errata catalogue, which says what the article
    # gets wrong for each erratum tag, and which the tests check every
    # tag against
    assert _unused({p.name: p.read_text() for p in PACKAGE.glob("*.py")},
                   _constant_names) == ["corpus.py: ERRATA"]


def _defined_and_called(sources: dict[str, str]) -> tuple[set, set]:
    """The module-level public functions of the given sources, and the
    names they call, as f(...) or x.f(...)."""
    defined, called = set(), set()
    for source in sources.values():
        tree = ast.parse(source)
        defined.update(node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    called.add(func.id)
                elif isinstance(func, ast.Attribute):
                    called.add(func.attr)
    return defined, called


def test_finds_defined_and_called_functions():
    sources = {"a.py": "def f(rank):\n    return g(rank)\n\n"
                       "def g(x):\n    return m.h(x)\n",
               "b.py": "def rank():\n    pass\n\ndef _k():\n    f\n"}
    assert _defined_and_called(sources) == ({"f", "g", "rank"}, {"g", "h"})


def test_every_uncalled_kept_name_is_defined_and_still_uncalled():
    # an exemption whose function is gone, or has gained a caller in the
    # package, is stale and goes from UNCALLED_KEPT
    defined, called = _defined_and_called(
        {p.name: p.read_text() for p in MODULES})
    assert sorted(name for name in UNCALLED_KEPT
                  if name not in defined or name in called) == []


def _group_element_builders(source: str) -> list[str]:
    """The dotted names of the functions (Class.method for a method) in
    which source calls GroupElement(...), by name or as an attribute;
    "<module>" for a call outside every function."""
    found = []

    def walk(node, scope):
        if isinstance(node, ast.Call) and "GroupElement" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            walk(child, inner)
    walk(ast.parse(source), ())
    return sorted(found)


def test_finds_group_element_builders():
    source = ("x = GroupElement((), m)\n"
              "class K:\n"
              "    def f(self):\n"
              "        def g():\n"
              "            return GroupElement(w, m)\n"
              "        return witness.GroupElement(w, m)\n"
              "def h():\n"
              "    return GroupElement\n")
    assert _group_element_builders(source) == ["<module>", "K.f", "K.f.g"]


def test_every_group_element_is_a_replayed_word():
    # an element of the group <A, C> is built only where its word over
    # A, A^-1 and C is evaluated or checked against its matrix; a
    # reflection about any other axis stays an int matrix
    builders = {p.name: _group_element_builders(p.read_text())
                for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in builders.items() if found} \
        == {"witness.py": ["WitnessContext.element",
                           "WitnessContext.verified"]}


# the box walk is quadform's isotropic search: the witness hunt reflects
# only about orbit images, so no other module of the program, its tools
# or its benchmark walks a box of its own through these names

BOX_NAMES = ("_box_solutions", "_box_walk")


def test_the_box_walk_is_named_only_in_quadform_and_the_tests():
    root = PACKAGE.parent.parent
    sources = sorted(PACKAGE.glob("*.py")) + sorted(
        (root / "tools").glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py"))
    assert PACKAGE / "quadform.py" in sources and len(sources) > 10
    named = {str(p.relative_to(root)): [name for name in BOX_NAMES
                                        if name in p.read_text()]
             for p in sources if p.name != "quadform.py"}
    assert {path: names for path, names in named.items() if names} == {}


# the benchmark's tracer rebinds these (module, attribute) names of the
# package, and fails its traced run on one that does not resolve
TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _tracer_table(name: str) -> tuple:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_every_traced_name_resolves(table):
    # a "Class.method" entry is looked up as the tracer's install() does,
    # in the class's own namespace, so an inherited method (such as
    # object.__init__) does not resolve
    entries = _tracer_table(table)
    assert entries
    missing = []
    for module_name, attr in entries:
        owner = importlib.import_module(f"orthomono.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = None if cls is None else vars(cls).get(meth)
        else:
            found = getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


# the tracer reads per-layer counts off return values by shape (the
# orbit's first map, the rank, a report's conclusion, ...); a change of
# shape must fail here rather than shift a benchmark metric silently

def _tracer_outcome():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._outcome


def test_tracer_outcomes_read_the_real_results(base_pair):
    outcome = _tracer_outcome()
    ctx = WitnessContext(base_pair)

    # the distinct images g(v) != v, walked on vectors without word_orbit
    seen = level = {ctx.v}
    for _ in range(8):
        level = {tuple(sum(a * b for a, b in zip(row, y))
                       for row in ctx.generators[token])
                 for y in level for token in ("A", "A^-1", "C")} - seen
        seen = seen | level
    assert outcome("witness.WitnessContext.word_orbit", (ctx, 8),
                   ctx.word_orbit(8)) == {"orbit_size": len(seen) - 1}

    eps = (-1, 0, 1, 0, 0)
    u = unipotent_from_reflections(ctx, eps, 8)
    assert outcome("witness.unipotent_from_reflections", (ctx, eps, 8),
                   u) == {"hits": 1}
    missed = unipotent_from_reflections(ctx, eps, 1)
    assert missed is None
    assert outcome("witness.unipotent_from_reflections", (ctx, eps, 1),
                   missed) == {"hits": 0}

    axes = integral_reflection_vectors(ctx, eps, 8)
    pairs = list(_gamma_pairs(ctx, eps, 8))
    rank = span_rank_witness(pairs, axes, eps, ctx)
    assert rank == 3
    assert outcome("witness.span_rank_witness", (pairs, axes, eps, ctx),
                   rank) == {"rank": 3}

    report = arithmeticity_report(ctx, 3, 8)
    assert report.conclusion == "witnessed-arithmetic"
    assert outcome("witness.arithmeticity_report", (ctx, 3, 8),
                   report) == {"witnessed": 1}

    hits = isotropic_search(ctx.gram, 1)
    assert len(hits) >= 1
    assert outcome("quadform.isotropic_search", (ctx.gram, 1),
                   hits) == {"found": len(hits)}

    doc = cli.build_report(BASE_F, BASE_G)
    assert "timings" in doc
    text = cli.serialize_report(
        {k: v for k, v in doc.items() if k != "timings"})
    assert outcome("cli.serialize_report", (doc,), text) \
        == {"bytes": len(text.rstrip("\n"))}
