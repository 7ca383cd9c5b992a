"""Every name mton exports is read in the library, or says why it is public."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mton"

# exported names that no library module reads, each with why it is public
PUBLIC = {
    "iter_level": "perfbench's walk loops and tracer test, until ROADMAP "
                  "item 1 moves them to stream_level",
    "core_child_digits": "perfbench's jobs.py and run.py, until ROADMAP "
                         "item 1",
    "children": "the full tree's child step: demos and README",
    "pair_children": "the pair tree's child step: demos and README",
    "full_root": "the full tree's root: demos and README",
    "pair_root": "the pair tree's root: demos and README",
    "ordering_count": "a partition's monotonic labellings: a demo; the "
                      "library counts raw blocks, _ordering_count_blocks",
}


def _exports(init: ast.Module) -> dict[str, str]:
    """Each name ``__init__`` imports, with the module that defines it."""
    return {alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _bound(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _loads(node: ast.AST) -> set[str]:
    """Names loaded under a node, plain or as ``module.name``; names in
    string annotations count."""
    seen = set()
    for part in ast.walk(node):
        loaded = isinstance(getattr(part, "ctx", None), ast.Load)
        if loaded and isinstance(part, ast.Name):
            seen.add(part.id)
        elif (loaded and isinstance(part, ast.Attribute)
              and isinstance(part.value, ast.Name)):
            seen.add(f"{part.value.id}.{part.attr}")
        note = (part.annotation if isinstance(part, (ast.arg, ast.AnnAssign))
                else part.returns
                if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef))
                else None)
        for text in ast.walk(note) if note else ():
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                seen |= _loads(ast.parse(text.value, mode="eval"))
    return seen


def _read(modules: dict[str, ast.Module], exports: dict[str, str]) -> set[str]:
    """The exported names some library module reads: a load in the
    module that defines or imports the name, outside its own definition,
    or a ``<module>.<name>`` read anywhere."""
    read = set()
    for module, tree in modules.items():
        relative = [(node.module, alias) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names]
        imported = {(home, alias.name) for home, alias in relative}
        # from . import closed_forms as cf: cf.name reads closed_forms.name
        modules_as = {alias.asname or alias.name: alias.name
                      for home, alias in relative if home is None}
        for stmt in tree.body:
            loads = set()
            for load in _loads(stmt):
                head, dot, attr = load.partition(".")
                loads.add(modules_as.get(head, head) + dot + attr)
            for name, home in exports.items():
                local = module == home or (home, name) in imported
                if name not in _bound(stmt) and (
                        f"{home}.{name}" in loads or local and name in loads):
                    read.add(name)
    return read


def _audit(sources: dict[str, str],
           public: dict[str, str]) -> dict[str, set[str]]:
    """Exported names with no library reader and no ``public`` entry,
    and every stale entry: read in the library, or no longer exported."""
    modules = {name: ast.parse(text) for name, text in sources.items()}
    exports = _exports(modules.pop("__init__"))
    read = _read(modules, exports)
    return {"unread": set(exports) - read - set(public),
            "stale": {n for n in public if n not in exports or n in read}}


def test_the_audit_sees_reads_definitions_and_stale_entries():
    sources = {
        "__init__": "from .a import f, g, h, K, children\n"
                    "from .b import full_root, iter_level\n",
        "a": "def f():\n    return f()\n"       # only itself: unread
             "def g():\n    pass\n"
             "def h(x: list['K']):\n    return g\n"  # K read in a note
             "K: int = 1\n"
             "def children():\n    pass\n",
        "b": "from . import a as x\nfrom .a import children\n"
             "def full_root():\n    return x.h, children\n"
             "def iter_level():\n    pass\n",
    }
    public = dict.fromkeys(("children", "full_root", "iter_level",
                            "pair_root"), "a reason")
    assert _audit(sources, public) == {"unread": {"f"},
                                       "stale": {"children", "pair_root"}}


def test_every_export_has_a_library_reader_or_a_reason():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _audit(sources, PUBLIC) == {"unread": set(), "stale": set()}
