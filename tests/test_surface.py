"""Surface guard: every public name of bandlab has a reader.

A public name is a name in a module's ``__all__``, or a public method,
property or dataclass field of a class listed there. It must be read
somewhere in ``src/bandlab`` outside its own definition, ``__all__`` and the
import statements; a reader outside the package, the tests included, does
not count. A method or field is read only through an attribute
(``x.name``): a local variable that happens to share its name is not a
reader. A dataclass whose instances are passed to ``dataclasses.asdict``
has every field read. The names kept without such a reader are listed in
``KEPT``, each with the repository paths that read it; each path must
exist and mention the name, so a stale exemption fails.

Every defaulted parameter of a package function, a module-level function
or a public method, and every defaulted public field of a class listed in
``__all__``, is set by some call inside ``src/bandlab``: by position or by
keyword, and by any call that passes ``*args`` or ``**kwargs``. A default
that only the tests override is a test-only knob; the ones kept are listed
in ``KNOBS``, each with its reason.

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
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bandlab"
TESTS = ROOT / "tests"
ORACLES = TESTS / "oracles.py"
# the one file that loads numpy's OpenBLAS
BINDING = "src/bandlab/montecarlo.py"

# name -> the repository paths that read it
KEPT = {
    "assemble": ("bench/setup_probe.py", "bench/tracing.py"),
}

# defaulted parameters that no package call sets -> the reason to keep them
KNOBS = {
    "cli.main.argv": "the console script calls main()",
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


def _exported(tree) -> list:
    """A module's ``__all__``."""
    exported = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            exported = ast.literal_eval(stmt.value)
    return exported


def _public_names(tree) -> list:
    """``__all__`` of a module plus the public methods of its classes and
    the public fields of its dataclasses."""
    exported = _exported(tree)
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


def _stale_readers(kept) -> list:
    """(name, path) for each reader path of ``kept`` (name -> paths) that
    does not exist or does not mention the name."""
    return [(name, path) for name, paths in kept.items() for path in paths
            if not (ROOT / path).is_file() or not re.search(
                rf"\b{name}\b", (ROOT / path).read_text(encoding="utf-8"))]


def test_kept_names_name_their_readers():
    assert _stale_readers(KEPT) == []


def test_a_stale_reader_is_reported():
    # failing controls: a path that does not mention the name, and one
    # that does not exist
    kept = {"assemble": ("bench/setup_probe.py", "src/bandlab/lattice.py",
                         "bench/gone.py")}
    assert _stale_readers(kept) == [("assemble", "src/bandlab/lattice.py"),
                                    ("assemble", "bench/gone.py")]


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


def _defaulted(tree, mod) -> dict:
    """Name -> [(qualified parameter, position)] for each defaulted
    parameter of the module's functions, its classes' public methods and
    the public fields of its classes in ``__all__``. The position counts
    the call's own arguments (a method's self is not one); a keyword-only
    parameter has none."""
    exported = _exported(tree)
    out = {}

    def add(name, qual, params, skip=0):
        positional = [a.arg for a in params.posonlyargs + params.args][skip:]
        first = len(positional) - len(params.defaults)
        found = [(f"{qual}.{a}", i) for i, a in enumerate(positional)
                 if i >= first]
        found += [(f"{qual}.{a.arg}", None) for a, d
                  in zip(params.kwonlyargs, params.kw_defaults)
                  if d is not None]
        if found:
            out.setdefault(name, []).extend(found)

    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            add(stmt.name, f"{mod}.{stmt.name}", stmt.args)
        elif isinstance(stmt, ast.ClassDef):
            for f in stmt.body:
                if isinstance(f, ast.FunctionDef) \
                        and not f.name.startswith("_"):
                    add(f.name, f"{mod}.{stmt.name}.{f.name}", f.args, skip=1)
            if stmt.name in exported:
                fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)
                          and isinstance(f.target, ast.Name)]
                out.setdefault(stmt.name, []).extend(
                    (f"{mod}.{stmt.name}.{f.target.id}", i)
                    for i, f in enumerate(fields)
                    if f.value is not None
                    and not f.target.id.startswith("_"))
    return out


def _set_by_calls(trees) -> set:
    """(callee name, parameter name or position) for each argument that a
    call passes; ``(name, None)`` for a call with ``*args`` or
    ``**kwargs``, which may set any parameter."""
    out = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = _callee(call)
            if any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                out.add((name, None))
            out.update((name, i) for i in range(len(call.args)))
            out.update((name, k.arg) for k in call.keywords)
    return out


def _unset_knobs(trees) -> list:
    """The defaulted parameters and fields of the package's modules in
    ``trees`` (path -> parsed module) that no call in the package sets."""
    package = {p.stem: t for p, t in trees.items() if p.parent == SRC}
    calls = _set_by_calls(package.values())
    return sorted(
        qual for mod, tree in package.items()
        for name, params in _defaulted(tree, mod).items()
        for qual, pos in params
        if not {(name, None), (name, pos), (name, qual.rpartition(".")[2])}
        & calls)


def test_every_default_is_set_by_the_package():
    unset = _unset_knobs(_parsed(SRC.glob("*.py")))
    assert unset == sorted(KNOBS), (
        f"defaulted parameters that only callers outside the package set: "
        f"{sorted(set(unset) - set(KNOBS))}; make each a module constant, "
        f"or add it to KNOBS with a reason; stale KNOBS: "
        f"{sorted(set(KNOBS) - set(unset))}")


# failing control: a synthetic function whose knob no package call sets
_KNOB = ast.parse("def tuned(x, scale=1.0, *, cap=2):\n"
                  "    return min(x * scale, cap)\n\n\n"
                  "tuned(3)\n")


def test_an_unset_knob_is_reported():
    trees = {SRC / "knobbed.py": _KNOB}
    assert _unset_knobs(trees) == ["knobbed.tuned.cap", "knobbed.tuned.scale"]
    # a call outside the package does not count; one inside it does, by
    # position, by keyword, or through **kwargs
    outside = ast.parse("tuned(3, 0.5, cap=1)\n")
    assert _unset_knobs({**trees, TESTS / "caller.py": outside}) \
        == ["knobbed.tuned.cap", "knobbed.tuned.scale"]
    for caller, unset in (("tuned(3, 0.5)\n", ["knobbed.tuned.cap"]),
                          ("tuned(3, cap=1)\n", ["knobbed.tuned.scale"]),
                          ("tuned(3, **opts)\n", [])):
        got = _unset_knobs({**trees, SRC / "caller.py": ast.parse(caller)})
        assert got == unset
