"""Surface guard: every public name of bandlab has a reader.

A public name is a name in a module's ``__all__``, or a public method,
property or dataclass field of a class listed there. It must be read
somewhere in ``src/bandlab`` outside its own definition, ``__all__`` and the
import statements; a reader outside the package, the tests included, does
not count. A method or field is read only through an attribute
(``x.name``): a local variable that happens to share its name is not a
reader. A dataclass whose instances are passed to ``dataclasses.asdict``
has every field read. The two names kept without such a reader are listed
in ``KEPT``, each with the reason it stays.

The tests' own oracles live in ``tests/oracles.py``; a name
defined there may not also be defined in ``src/bandlab``, so an oracle
cannot drift back into the package.

The package calls no ``np.ndarray(...)`` constructor: every view of H's
layer rows and of G is a plain slice, whose strides numpy derives, never
one built by hand over a buffer.

numpy's OpenBLAS is loaded by one ``CDLL`` call of ctypes, in
``montecarlo._openblas``; the package and its tests read every entry point
they use from that binding.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bandlab"
TESTS = ROOT / "tests"
ORACLES = TESTS / "oracles.py"
# the one file that loads numpy's OpenBLAS
BINDING = "src/bandlab/montecarlo.py"

KEPT = {
    "assemble": "bench/setup_probe.py calls it and bench/tracing.py times it",
    "site_coords": "README, Site order, documents it as the decoder of the "
                   "d=2 site numbering",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree) -> tuple:
    """Names read in ``tree`` as a bare name, and as an attribute, except
    reads of a definition's own name inside that definition."""
    bare, attrs = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Name) and node.id not in enclosing:
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            attrs.add(node.attr)
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return bare, attrs


def _callee(call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)


def _is_dataclass(node) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or isinstance(d, ast.Call) and _callee(d) == "dataclass"
               for d in node.decorator_list)


def _public_names(tree) -> list:
    """``__all__`` of a module plus the public methods of its classes and
    the public fields of its dataclasses."""
    exported = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            exported = ast.literal_eval(stmt.value)
    names = list(exported)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name in exported:
            members = [f.name for f in stmt.body
                       if isinstance(f, ast.FunctionDef)]
            if _is_dataclass(stmt):
                members += [f.target.id for f in stmt.body
                            if isinstance(f, ast.AnnAssign)]
            names += [f"{stmt.name}.{m}" for m in members
                      if not m.startswith("_")]
    return names


def _serialized(trees) -> set:
    """Classes whose instances reach ``dataclasses.asdict``: an argument
    that is a call, or a local name assigned from one, of a function
    annotated to return the class."""
    returns = {f.name: f.returns.id for t in trees for f in ast.walk(t)
               if isinstance(f, ast.FunctionDef)
               and isinstance(f.returns, ast.Name)}
    out = set()
    for func in (f for t in trees for f in ast.walk(t)
                 if isinstance(f, ast.FunctionDef)):
        made = {t.id: node.value for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _callee(node) == "asdict":
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        arg = made.get(arg.id)
                    if isinstance(arg, ast.Call) and _callee(arg) in returns:
                        out.add(returns[_callee(arg)])
    return out


def _parsed(paths) -> dict:
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)}


def _surface(trees):
    """Public names, every name read, the names read as attributes, and
    the dataclasses whose fields are all read through ``asdict``, over the
    modules of ``trees`` (path -> parsed module) that lie in the package;
    the others are ignored."""
    package = {p.stem: t for p, t in trees.items() if p.parent == SRC}
    public = [(mod, name) for mod, tree in package.items()
              for name in _public_names(tree)]
    reads = [_reads(t) for t in package.values()]
    bare = set().union(*(b for b, _ in reads))
    attrs = set().union(*(a for _, a in reads))
    return public, bare | attrs, attrs, _serialized(package.values())


def _is_read(name, read, attrs, serialized) -> bool:
    """A member (Class.name) is read only as an attribute, or by
    ``asdict`` when its class is passed there."""
    owner, _, last = name.rpartition(".")
    if not owner:
        return last in read
    return last in attrs or owner in serialized


def _unread(trees) -> list:
    public, read, attrs, serialized = _surface(trees)
    return [f"{mod}.{name}" for mod, name in public
            if not _is_read(name, read, attrs, serialized)
            and name.split(".")[-1] not in KEPT]


def test_every_public_name_has_a_reader():
    unread = _unread(_parsed(SRC.glob("*.py")))
    assert unread == [], (
        f"public names that no command or module reads: {unread}; delete "
        "them, or add them to KEPT with a reason")


# failing controls: a synthetic public function that nothing reads
_ORPHAN = ast.parse('__all__ = ["orphan"]\n\n\ndef orphan():\n    pass\n')
_READER = ast.parse("from bandlab.orphaned import orphan\n\norphan()\n")


def test_an_unread_public_name_is_reported():
    trees = {**_parsed(SRC.glob("*.py")), SRC / "orphaned.py": _ORPHAN}
    assert _unread(trees) == ["orphaned.orphan"]


def test_a_reader_outside_the_package_does_not_count():
    trees = {**_parsed(SRC.glob("*.py")), SRC / "orphaned.py": _ORPHAN}
    outside = ROOT / "tests" / "test_acceptance.py"
    assert _unread({**trees, outside: _READER}) == ["orphaned.orphan"]
    # the same reader inside the package keeps the name
    assert _unread({**trees, SRC / "reader.py": _READER}) == []


def test_kept_names_are_public_and_unread():
    public, read, attrs, serialized = _surface(_parsed(SRC.glob("*.py")))
    kept = [name for _, name in public if name.split(".")[-1] in KEPT]
    assert {name.split(".")[-1] for name in kept} == set(KEPT)
    assert [name for name in kept
            if _is_read(name, read, attrs, serialized)] == []


def test_oracles_stay_out_of_the_package():
    def defined(path, top_level):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return {node.name for node in (tree.body if top_level
                                       else ast.walk(tree))
                if isinstance(node, _DEFS)}

    oracles = defined(ORACLES, True)
    clash = oracles & set().union(*(defined(p, False)
                                    for p in SRC.glob("*.py")))
    assert oracles and clash == set(), (
        f"test oracles also defined in bandlab: {sorted(clash)}")


def _ndarray_calls(trees) -> list:
    """(module, line) of each call of the ``ndarray`` constructor in
    ``trees`` (path -> parsed module)."""
    return [(p.stem, node.lineno) for p, t in trees.items()
            for node in ast.walk(t)
            if isinstance(node, ast.Call) and _callee(node) == "ndarray"]


def test_the_package_builds_no_array_by_hand():
    calls = _ndarray_calls(_parsed(SRC.glob("*.py")))
    assert calls == [], (
        f"np.ndarray(...) calls in bandlab: {calls}; take a slice instead")


def test_a_hand_built_array_is_reported():
    # failing control: a view made by the constructor over another buffer
    made = ast.parse("import numpy as np\n\n"
                     "v = np.ndarray((2,), complex, buf, 0, (32,))\n")
    assert _ndarray_calls({SRC / "strided.py": made}) == [("strided", 3)]


def _library_loads(trees) -> tuple:
    """The ``CDLL(...)`` calls in ``trees`` (path -> parsed module) as
    (file, line), the file relative to the repository: those in
    ``BINDING``, and those elsewhere."""
    loads = [(p.relative_to(ROOT).as_posix(), node.lineno)
             for p, t in trees.items() for node in ast.walk(t)
             if isinstance(node, ast.Call) and _callee(node) == "CDLL"]
    return ([load for load in loads if load[0] == BINDING],
            [load for load in loads if load[0] != BINDING])


def test_one_binding_loads_openblas():
    binding, others = _library_loads(_parsed([*SRC.glob("*.py"),
                                              *TESTS.rglob("*.py")]))
    assert binding and others == [], (
        f"CDLL calls outside {BINDING}: {others}; read the entry "
        "point from montecarlo._openblas() instead")


def test_a_second_library_load_is_reported():
    # failing control: a test that loads a library of its own
    loader = ast.parse("from ctypes import CDLL\n\nlib = CDLL(path)\n")
    trees = {**_parsed([ROOT / BINDING]), TESTS / "scan.py": loader}
    assert _library_loads(trees)[1] == [("tests/scan.py", 3)]
