"""Every top-level name in the package is read by the program, so none lingers unused.

A name counts as read when code in ``src/tdxmodel`` (outside the name's own
definition) or in ``perfbench/`` loads it, as a bare name or as an attribute.
Imports alone do not count, and neither do ``status.py``'s ``globals()`` name
tables.  A decorated function is read by its decorator, and a name in
``tdxmodel.__all__`` is the package's public surface.  Anything else must be on
the allow-list below, with its reason.

Every parameter of a function in ``src/tdxmodel`` is read by its body, too,
unless it is spelled ``_`` or is on the second allow-list.

Every field a ``@dataclass`` in ``src/tdxmodel`` declares is read, with no
allow-list: ``src/tdxmodel`` or ``perfbench/`` loads it as an attribute, or
spells its name in a string constant, as ``getattr`` tables such as
``FIELD_ID_LAYOUT`` do.

Every name a class body in ``src/tdxmodel`` binds (a method, property, class
constant or enum member) is used, with no allow-list either; see
``test_every_class_member_is_used``.
"""

import ast
import pathlib

import trace_lines
import tdxmodel
from tdxmodel import status as S

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tdxmodel"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# module.name -> why it stays although the program never reads it.
ALLOWED = {
    "__init__.__all__": "the public names, read by `from tdxmodel import *`",
    "__init__.__version__": "the package version, for whoever inspects an installed copy",
    "md_codec.MAX_SEQUENCE_BYTES": "the codec's largest sequence, pinned by the dump tests",
    "status.OPERAND_ID_RAX": "operand 0: status_str prints it on every bare word, as the goldens show",
    "td.ATTR_SEPT_VE_DISABLE": "a TD attribute bit the build and import tests set on migratable TDs",
    "td.is_event_allowed": "the event-filter lookup the bug-3 acceptance check asks",
}


def _definitions(paths) -> dict[str, ast.AST]:
    """module.name -> the top-level statement that binds it (imports excluded)."""
    found = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{node.name}"] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            found[f"{path.stem}.{name.id}"] = node
    return found


def _reads(paths) -> set[str]:
    """Every name loaded in the files, less a definition's reads of itself."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for inner in ast.walk(node):
                    owner[id(inner)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if owner.get(id(node)) != name:
                names.add(name)
    return names


def _unread() -> list[str]:
    reads = _reads(READERS)
    return sorted(
        qualified for qualified, node in _definitions(sorted(PACKAGE.glob("*.py"))).items()
        if qualified.split(".", 1)[1] not in reads
        and not getattr(node, "decorator_list", None)
        and qualified.split(".", 1)[1] not in tdxmodel.__all__
    )


def test_every_top_level_name_is_read_or_allowed():
    unread = _unread()
    extra = sorted(set(unread) - set(ALLOWED))
    assert not extra, "nothing reads " + ", ".join(extra)
    # An entry whose name is gone, or is read after all, must leave the list.
    stale = sorted(set(ALLOWED) - set(unread))
    assert not stale, "allowed but read or gone: " + ", ".join(stale)


def test_every_private_test_helper_is_read():
    """In ``tests/`` a private top-level name that no test module reads is dead."""
    reads = _reads(TESTS)
    unread = sorted(
        qualified for qualified in _definitions(TESTS)
        if (name := qualified.split(".", 1)[1]).startswith("_") and not name.startswith("__")
        and name not in reads
    )
    assert not unread, "no test reads " + ", ".join(unread)


PROTOCOL_STUB = "a Protocol method stub: it states the signature its implementations take"
LEAF_OPERAND = "a leaf operand the ABI gives: the leaf wrapper gates the call on it, the body need not"

# module.function.param -> why the function keeps a parameter it never reads.
ALLOWED_PARAMS = {
    "engine.TdxModule._succeed.td": LEAF_OPERAND,
    "engine.TdxModule.tdh_export_track.td": LEAF_OPERAND,
    "engine.TdxModule.tdh_vp_addcx.td": LEAF_OPERAND,
    "engine.TdxModule.tdh_vp_addcx.vp_index": LEAF_OPERAND + "; it bounds-checks vp_index by name",
    **{f"md_codec.{stub}.{param}": PROTOCOL_STUB for stub, params in (
        ("MetadataSink.write_field", ("entry", "field_index", "values", "combined_mask")),
        ("MetadataSink.record_skip", ("entry", "field_index")),
        ("MetadataSource.read_field", ("entry", "field_index", "count"))) for param in params},
    "md_codec.write_list.expected_raw": "perfbench passes it by position (ROADMAP item 7 drops it)",
    "td.TD_CONFIG_RULES.<lambda>.gpaw": "every TD_CONFIG_RULES check takes (value, gpaw, importing)",
    "td.TdImportSink.record_skip.field_index": "MetadataSink's record_skip signature; the ledger "
                                               "keys a skip by its entry alone",
}


def _unread_params() -> list[str]:
    """module.function.param of each parameter in ``src/`` that its function never loads."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                spec = child.args
                params = [a.arg for a in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                                          spec.vararg, spec.kwarg) if a]
                body = child.body if isinstance(child.body, list) else [child.body]
                loads = {n.id for stmt in body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.extend(f"{name}.{p}" for p in params
                              if p not in loads and p not in ("self", "cls", "_"))
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Assign) and isinstance(node, ast.Module):
                visit(child, f"{prefix}{'.'.join(map(ast.unparse, child.targets))}.")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return sorted(set(unread))


def test_every_parameter_is_read_or_allowed():
    unread = _unread_params()
    extra = sorted(set(unread) - set(ALLOWED_PARAMS))
    assert not extra, "no body reads " + ", ".join(extra)
    stale = sorted(set(ALLOWED_PARAMS) - set(unread))
    assert not stale, "allowed but read or gone: " + ", ".join(stale)


def _dataclass_fields() -> dict[str, str]:
    """module.Class.field -> field name, for every field a ``@dataclass`` in ``src/`` declares."""
    fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
                fields.update({f"{path.stem}.{node.name}.{stmt.target.id}": stmt.target.id
                               for stmt in node.body
                               if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)})
    return fields


def test_every_dataclass_field_is_read():
    read = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = sorted(qualified for qualified, name in _dataclass_fields().items() if name not in read)
    assert not unread, "nothing reads the field " + ", ".join(unread)


def _member_uses() -> set[str]:
    """The names ``src/`` or ``perfbench/`` code loads outside the definition of the same
    name, and its string constants but an enum member's own value."""
    used = set()
    for path in READERS:
        tree = ast.parse(path.read_text())
        around, own_values = {}, set()  # node id -> names of the defs around it
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for inner in ast.walk(node):
                    around.setdefault(id(inner), set()).add(node.name)
            if isinstance(node, ast.ClassDef):
                own_values |= {id(stmt.value) for stmt in node.body if isinstance(stmt, ast.Assign)
                               and isinstance(stmt.value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = getattr(node, "id", None) or node.attr
            elif isinstance(node, ast.Constant) and type(node.value) is str:
                name = None if id(node) in own_values else node.value
            else:
                continue
            if name not in around.get(id(node), ()):
                used.add(name)
    return used


def _unused_members() -> list[str]:
    """module.Class.name of each name a class body in ``src/`` binds that nothing uses."""
    data = {word for path in (PACKAGE / "data").glob("*.txt") for word in path.read_text().split()}
    used = _member_uses()
    members = {}  # module.Class.name -> (name, the enum value it is bound to, if a string)
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound = {stmt.name: None}
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    value = getattr(stmt.value, "value", None)
                    bound = {t.id: value if type(value) is str else None for t in ast.walk(stmt)
                             if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
                else:
                    continue
                members.update({f"{path.stem}.{cls.name}.{n}": (n, v) for n, v in bound.items()})
    leaves = {key.rsplit(".", 1)[1] for key in members if key.startswith("engine.TdxModule.")}
    return sorted(
        key for key, (name, value) in members.items()
        if name not in used and name not in data and value not in data
        and not (name.startswith("__") and name.endswith("__"))
        and not name.startswith(("tdh_", "tdg_"))
        and not (key.startswith("states.Leaf.") and name.lower() in leaves)
    )


def test_every_class_member_is_used():
    """A member counts as used when ``src/`` or ``perfbench/`` code reads it (by name or
    attribute, outside its own definition) or spells it as a string, as the tracer wraps
    by name; when it or its enum value is in a ``data/*.txt`` table; when it is a dunder
    or a ``tdh_``/``tdg_`` leaf; or when it is a ``Leaf`` member naming a TdxModule method."""
    unused = _unused_members()
    assert not unused, "nothing uses " + ", ".join(unused)


def _status_names_src_uses(prefix: str) -> set[str]:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "status":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(name, str) and name.startswith(prefix) and hasattr(S, name):
                used.add(name)
    return used


# TD_FATAL's value carries the fatal flag, which status_str strips before it
# looks the class up, so the word prints as bare hex, as the goldens record it.
PRINTED_BARE = {"TDX_TD_FATAL"}


def test_every_status_word_src_uses_renders_by_name():
    words = {name for name in _status_names_src_uses("TDX_") if not name.endswith("_MASK")}
    assert "TDX_SUCCESS" in words and PRINTED_BARE <= words
    for name in words - PRINTED_BARE:
        assert S.status_str(getattr(S, name)).split(" - ")[1] == f"{name} : OPERAND_ID_RAX"
    for name in PRINTED_BARE:
        assert S.status_str(getattr(S, name)) == hex(getattr(S, name))
    operands = _status_names_src_uses("OPERAND_ID_") | {"OPERAND_ID_RAX"}
    assert "OPERAND_ID_RCX" in operands
    for name in operands:
        word = S.with_operand(S.TDX_OPERAND_INVALID, getattr(S, name))
        assert S.status_str(word).endswith(f"TDX_OPERAND_INVALID : {name}")


def test_the_line_tracer_counts_every_statement_and_each_allowed_line_exists():
    """``tests/trace_lines.py`` checks the lines tier-1 runs: it counts a line of each statement.

    A docstring and a ``global`` or ``nonlocal`` declaration compile to no code.  An
    allow-list entry whose text is gone from its file would allow nothing.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        counted = trace_lines.executable_lines(path)
        for node in ast.walk(ast.parse(path.read_text())):
            declaration = isinstance(node, (ast.Global, ast.Nonlocal))
            docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            if isinstance(node, ast.stmt) and not docstring and not declaration:
                lines = range(node.lineno, node.end_lineno + 1)
                assert any(line in counted for line in lines), f"{path.name}:{node.lineno}"
    for key in trace_lines.ALLOWED:
        assert trace_lines.allowed_lines(key), f"no line of {key[0]} is {key[1:]}"
