"""The lines of ``src/tdxmodel`` that the tier-1 suite never runs, checked against ``ALLOWED``.

Run it from the repository root, apart from the suite itself::

    PYTHONPATH=src python tests/trace_lines.py

It runs the tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``), with ``--hypothesis-seed=0``
and no example database, so it reaches the same lines on every run.  It then
prints every executable line of the package, less ``__main__.py`` (which runs
only in a subprocess), that no test ran.  It exits 1 if such a line is not on
``ALLOWED``, or if an ``ALLOWED`` line ran after all; with the suite's own
exit code if the suite failed; else 0.  It takes about 2.5 times the
suite's own time.

Over the same run it records which fields of each ``@dataclass`` in the
package are read, by hooking each such class's ``__getattribute__`` until all
its fields have been read.  A read counts when the reading frame is code in
``src/tdxmodel`` or ``perfbench/``: not a test, and not the methods
``dataclasses`` generates.  It exits 1 if a field was never read so, and
there is no allow-list for that.

``ALLOWED`` is keyed by (file, stripped line text), or by (file, function,
text) where the text repeats in the file, and each entry says why no input
reaches the line.  ``tests/test_unused_names.py`` checks in tier-1 that each
entry still names a line, and that every statement of the package but a
docstring or a declaration is a line the tracer counts.
"""

import dataclasses
import importlib
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tdxmodel"
UNTRACED = ("__main__.py",)  # it runs only as ``python -m tdxmodel``, in a subprocess
READERS = (f"{PACKAGE}/", f"{ROOT / 'perfbench'}/")  # the code whose field reads count

# (file, [function,] stripped line text) -> why no input reaches the line.  Every line of the
# package runs in tier-1 now, so it is empty.
ALLOWED: dict[tuple, str] = {}


def executable_lines(path: pathlib.Path) -> dict[int, str]:
    """Line number -> qualified name of the innermost function or class that holds it."""
    owner = {}
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop(0)
        owner.update((line, code.co_qualname) for _, _, line in code.co_lines() if line)
        pending += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return owner


def allowed_lines(key: tuple) -> list[int]:
    """The executable lines an ``ALLOWED`` key names: its text, in its function if it names one."""
    name, *function, text = key
    path = PACKAGE / name
    source = path.read_text().splitlines()
    return sorted(line for line, owner in executable_lines(path).items()
                  if source[line - 1].strip() == text
                  and all(owner == f or owner.endswith(f".{f}") for f in function))


def _tracer(seen: dict):
    """A global trace function that logs the lines run in the package's files, and no others."""
    root, local = str(PACKAGE) + "/", {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        if name not in local:
            add = seen.setdefault(name, set()).add

            def line(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return line
            local[name] = line
        return local[name]
    return call


def dataclass_fields() -> dict[type, set[str]]:
    """Each ``@dataclass`` the package defines -> the names of its fields."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in UNTRACED:
            module = importlib.import_module(f"{PACKAGE.name}.{path.stem}")
            found.update({cls: {f.name for f in dataclasses.fields(cls)} for cls in vars(module).values()
                          if dataclasses.is_dataclass(cls) and isinstance(cls, type)
                          and cls.__module__ == module.__name__})
    return found


def watch_field_reads(unread: dict[type, set[str]]) -> None:
    """Take each field from ``unread`` once ``READERS`` code reads it; a class left with no
    unread field gets its own attribute lookup back."""
    for cls, names in unread.items():
        def getattribute(self, name, cls=cls, names=names, lookup=cls.__getattribute__):
            if name in names and sys._getframe(1).f_code.co_filename.startswith(READERS):
                names.discard(name)
                if not names:
                    del cls.__getattribute__
            return lookup(self, name)
        cls.__getattribute__ = getattribute


class _NoDatabase:
    """A pytest plugin: no saved example replays, and no deadline a traced example could miss."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("trace-lines", database=None, deadline=None)
        settings.load_profile("trace-lines")


def main() -> int:
    seen: dict[str, set[int]] = {}
    trace = _tracer(seen)
    threading.settrace(trace)
    sys.settrace(trace)
    unread = dataclass_fields()
    watch_field_reads(unread)
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                        "--continue-on-collection-errors", str(ROOT / "tests")],
                       plugins=[_NoDatabase()])
    sys.settrace(None)
    threading.settrace(None)
    if code != 0:
        print(f"the suite failed (exit {code}); its coverage is not checked")
        return int(code)

    unrun = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in UNTRACED:
            continue
        source = path.read_text().splitlines()
        ran = seen.get(str(path), set())
        for line, owner in sorted(executable_lines(path).items()):
            if line not in ran:
                unrun[path.name, line] = (owner, source[line - 1].strip())
    allowed = {(key[0], line): key for key in ALLOWED for line in allowed_lines(key)}
    print(f"\n{len(unrun)} executable lines of src/tdxmodel did not run:")
    for (name, line), (owner, text) in unrun.items():
        mark = "" if (name, line) in allowed else "  <- not allowed"
        print(f"  {name}:{line} [{owner}] {text}{mark}")
    stray = sorted(set(unrun) - set(allowed))
    ran_anyway = sorted({allowed[place] for place in set(allowed) - set(unrun)})
    for key in ran_anyway:
        print(f"allowed but run: {key}")
    never_read = sorted(f"{cls.__module__}.{cls.__qualname__}.{name}"
                        for cls, names in unread.items() for name in names)
    print(f"{len(never_read)} dataclass fields no code in src/tdxmodel or perfbench/ read:")
    for field in never_read:
        print(f"  {field}  <- not allowed")
    return 1 if stray or ran_anyway or never_read else 0


if __name__ == "__main__":
    sys.exit(main())
