"""Surface guard: every public name of bandlab has a reader.

A public name is a name in a module's ``__all__`` or a public method or
property of a class listed there. It must be read somewhere in
``src/bandlab`` outside its own definition, ``__all__`` and the import
statements, or by the acceptance suite. A method is read only through an
attribute (``x.name``): a local variable that happens to share its name is
not a reader. The few names kept without such a reader are listed in
``KEPT``, each with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bandlab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

KEPT = {
    "periodic_distance": "oracle of the site distance matrices",
    "block_bracket": "oracle of <[x]> in the finite-difference tests",
    "site_distance_matrix": "dense oracle of block0_site_distances and of "
                            "the profile builders' reach",
    "flow_profile": "the profile flow S_t the family tests close against",
    "profile_from_text": "inverse of profile_to_text (round-trip tests)",
    "assemble": "timed by bench/setup_probe.py; dense oracle of the tests",
    "project_tensor": "block average of the dense loop oracle in the tests",
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


def _public_names(tree) -> list:
    """``__all__`` of a module plus the public methods of its classes."""
    exported = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            exported = ast.literal_eval(stmt.value)
    names = list(exported)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name in exported:
            names += [f"{stmt.name}.{f.name}" for f in stmt.body
                      if isinstance(f, ast.FunctionDef)
                      and not f.name.startswith("_")]
    return names


def _surface():
    """Public names, every name read, and the names read as attributes."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    public = [(mod, name) for mod, tree in trees.items()
              for name in _public_names(tree)]
    reads = [_reads(t) for t in trees.values()]
    reads.append(_reads(ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))))
    bare = set().union(*(b for b, _ in reads))
    attrs = set().union(*(a for _, a in reads))
    return public, bare | attrs, attrs


def test_every_public_name_has_a_reader():
    public, read, attrs = _surface()
    # a method (Class.name) is read only as an attribute
    unread = [f"{mod}.{name}" for mod, name in public
              if name.split(".")[-1] not in (attrs if "." in name else read)
              and name.split(".")[-1] not in KEPT]
    assert unread == [], (
        "public names that no command, module or acceptance criterion "
        f"reads: {unread}; delete them, or add them to KEPT with a reason")


def test_kept_names_are_public_and_unread():
    public, read, _ = _surface()
    names = {name.split(".")[-1] for _, name in public}
    assert set(KEPT) <= names
    assert set(KEPT) & read == set()
