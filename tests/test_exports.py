"""Every name mton exports, every public member of an exported class and
every other public module-level name is read in the library, or says why
it is public."""

import ast
from collections import Counter
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
    # public names __init__ does not export, as module.name
    "reference.has_crossing_naive": "the tests' oracle for the crossing "
                                    "sweep",
    "laplace.clear_scan_cache": "perfbench's tracer and the tests start "
                                "from a cold scan",
    "tree.child_at": "the single-child step the batch tests compare "
                     "against",
}

# public members of exported classes that no library module reads, each
# with why it is public
MEMBERS = {
    **dict.fromkeys(
        ("OrderedNcPartition.from_json", "NcPartition.from_json",
         "TreeCode.from_json", "ExactPolynomial.from_json"),
        "reads back what to_json writes: the JSON round trip of the "
        "records the commands print"),
    "OrderedNcPartition.partition": "a node's unlabelled partition: a demo",
    "ExactPolynomial.degree": "a transform's degree: a demo",
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


def _read(modules: dict[str, ast.Module],
          names: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs some library module reads: a load in
    the module that defines or imports the name, outside its own
    definition, or a ``<module>.<name>`` read anywhere."""
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
            for home, name in names:
                local = module == home or (home, name) in imported
                if name not in _bound(stmt) and (
                        f"{home}.{name}" in loads or local and name in loads):
                    read.add((home, name))
    return read


def _fields(node: ast.AST) -> list[str]:
    """The fields a ``namedtuple(...)`` call names; none for any other node."""
    if not (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "namedtuple"):
        return []
    spec = ast.literal_eval(node.args[1])
    return spec.replace(",", " ").split() if isinstance(spec, str) else spec


def _members(stmt: ast.stmt) -> dict[str, ast.AST | None]:
    """The public members a top-level class statement defines: each
    named-tuple field, mapped to None, and each method or property,
    mapped to its definition."""
    if isinstance(stmt, ast.Assign):  # X = namedtuple("X", ...)
        return dict.fromkeys(_fields(stmt.value))
    if not isinstance(stmt, ast.ClassDef):
        return {}
    members = dict.fromkeys(f for base in stmt.bases for f in _fields(base))
    members.update((f.name, f) for f in stmt.body
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {m: d for m, d in members.items() if not m.startswith("_")}


def _attributes(node: ast.AST) -> Counter:
    """How often each attribute name is loaded under a node."""
    return Counter(part.attr for part in ast.walk(node)
                   if isinstance(part, ast.Attribute)
                   and isinstance(part.ctx, ast.Load))


def _unpacks_self(stmt: ast.stmt) -> bool:
    """Whether a method of the class unpacks ``self``, as in
    ``a, b = self``, which reads every field."""
    return any(isinstance(part, ast.Assign)
               and isinstance(part.targets[0], (ast.Tuple, ast.List))
               and getattr(part.value, "id", None) == "self"
               for part in ast.walk(stmt))


def _member_reads(modules: dict[str, ast.Module],
                  exports: dict[str, str]) -> dict[str, bool]:
    """``Class.member`` for each public member of an exported class, and
    whether the library reads it: an attribute load of its name outside
    its own definition, or, for a field, a method that unpacks ``self``."""
    loads = sum(map(_attributes, modules.values()), Counter())
    reads = {}
    for name, home in exports.items():
        for stmt in modules[home].body:
            if name not in _bound(stmt):
                continue
            unpacked = _unpacks_self(stmt)
            for member, definition in _members(stmt).items():
                own = _attributes(definition)[member] if definition else 0
                reads[f"{name}.{member}"] = (loads[member] > own or (
                    definition is None and unpacked))
    return reads


def _audit(sources: dict[str, str],
           public: dict[str, str]) -> dict[str, set[str]]:
    """Exported names, other public module-level names (as
    ``module.name``) and ``Class.member`` members with no library reader
    and no ``public`` entry, and every stale entry: read in the library,
    or no longer such a name."""
    modules = {name: ast.parse(text) for name, text in sources.items()}
    exports = _exports(modules.pop("__init__"))
    members = _member_reads(modules, exports)
    label = {(home, name): f"{home}.{name}" for home, tree in modules.items()
             for stmt in tree.body for name in _bound(stmt)
             if not name.startswith("_")}
    label.update(((home, name), name) for name, home in exports.items())
    read = ({label[pair] for pair in _read(modules, set(label))}
            | {m for m, r in members.items() if r})
    names = set(label.values()) | set(members)
    return {"unread": names - read - set(public),
            "stale": {n for n in public if n not in names or n in read}}


def test_the_audit_sees_reads_definitions_and_stale_entries():
    sources = {
        "__init__": "from .a import f, g, h, K, P, Q, children\n"
                    "from .b import full_root, iter_level\n",
        "a": "def f():\n    return f()\n"       # only itself: unread
             "def g():\n    pass\n"
             "def h(x: list['K']):\n    return g\n"  # K read in a note
             "K: int = 1\n"
             "def children():\n    pass\n"
             "class P(namedtuple('P', 'x y')):\n"
             "    def m(self):\n        return self.m()\n"  # unread
             "    def run(self):\n        x, y = self\n"  # reads x, y
             "        return x\n"
             "Q = namedtuple('Q', 'z, w')\n"
             "def lone():\n    pass\n"  # not exported and unread
             "def _private():\n    pass\n",
        "b": "from . import a as x\nfrom .a import children\n"
             "def full_root():\n    return x.h, children, x.P.run, x.Q.z\n"
             "def iter_level():\n    return helper\n"
             "def helper():\n    pass\n",  # not exported, read
    }
    public = dict.fromkeys(("children", "full_root", "iter_level",
                            "pair_root", "P.gone", "Q.z", "b.helper",
                            "b.gone"), "a reason")
    assert _audit(sources, public) == {
        "unread": {"f", "P.m", "Q.w", "a.lone"},
        "stale": {"children", "pair_root", "P.gone", "Q.z", "b.helper",
                  "b.gone"}}


def test_every_export_has_a_library_reader_or_a_reason():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _audit(sources, PUBLIC | MEMBERS) == {"unread": set(),
                                                 "stale": set()}
