"""Static checks on the package source: no import is left unused, no broad
exception handler swallows an error without a word, no module reads another's
private names, nothing sleeps, no transport option or module constant goes
unread, no module but ``wire`` builds an ``ERROR`` frame, no module imports by
name a codec function that the benchmark's tracer wraps, no private helper goes
unused, no ``setdefault`` builds its default on every call."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import agentway
from agentway.transport import TransportOpts
from test_tracing import load_tracing

PACKAGE = Path(agentway.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read if it appears as a bare name or as the root of an
    attribute chain. ``from __future__`` imports are not checked.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from typing import Any, Optional\nx: Optional[int] = None\n") == ["line 1: Any"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def silent_broad_handlers(source: str) -> list[str]:
    """``except Exception`` (or bare ``except``, or ``BaseException``) handlers whose body is only ``pass``."""
    broad = {"Exception", "BaseException"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(n is None or (isinstance(n, ast.Name) and n.id in broad) for n in names) and all(
            isinstance(stmt, ast.Pass) for stmt in node.body
        ):
            found.append(f"line {node.lineno}")
    return found


def test_the_scan_finds_a_silent_broad_handler():
    assert silent_broad_handlers("try:\n    f()\nexcept Exception:\n    pass\n") == ["line 3"]
    assert silent_broad_handlers("try:\n    f()\nexcept (OSError, Exception):\n    pass\n") == ["line 3"]
    assert silent_broad_handlers("try:\n    f()\nexcept:\n    pass\n") == ["line 3"]
    assert silent_broad_handlers("try:\n    f()\nexcept OSError:\n    pass\n") == []
    assert silent_broad_handlers("try:\n    f()\nexcept Exception as e:\n    log(e)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_silent_broad_handlers(path):
    assert silent_broad_handlers(path.read_text(encoding="utf-8")) == []


def private_reads_of_sibling_modules(source: str) -> list[str]:
    """``_``-prefixed names a module reads from another ``agentway`` module, by
    attribute (``wire._x``) or by import (``from .wire import _x``)."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "agentway"
        ):
            for alias in node.names:
                if node.module in (None, "agentway"):
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"line {node.lineno}: {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("agentway.") and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_the_scan_finds_a_private_read_of_a_sibling_module():
    assert private_reads_of_sibling_modules("from . import wire\nx = wire._TABLE\n") == [
        "line 2: wire._TABLE"
    ]
    assert private_reads_of_sibling_modules("from .wire import _Reader\n") == ["line 1: wire._Reader"]
    assert private_reads_of_sibling_modules("from agentway.wire import _x\n") == [
        "line 1: agentway.wire._x"
    ]
    assert private_reads_of_sibling_modules("import agentway.wire as w\nw._x\n") == ["line 2: w._x"]
    assert private_reads_of_sibling_modules("from . import wire\nwire.TABLE, wire.__name__\n") == []
    assert private_reads_of_sibling_modules("import os\nos._exit\nself._lock\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reads_of_sibling_modules(path):
    assert private_reads_of_sibling_modules(path.read_text(encoding="utf-8")) == []


def sleeping_functions(source: str) -> list[str]:
    """The functions that call ``time.sleep`` (or a ``sleep`` imported from
    ``time``), one entry per call; a call outside any function is ``<module>``."""
    tree = ast.parse(source)
    bare = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for alias in node.names if alias.name == "sleep"}
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Attribute) and child.func.attr == "sleep"
                 and isinstance(child.func.value, ast.Name) and child.func.value.id == "time")
                or (isinstance(child.func, ast.Name) and child.func.id in bare)
            ):
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else where)

    visit(tree, "<module>")
    return found


def test_the_scan_finds_a_sleep():
    assert sleeping_functions("import time\ndef f():\n    time.sleep(1)\n") == ["f"]
    assert sleeping_functions("from time import sleep as nap\nclass C:\n    def g(self):\n"
                              "        while True:\n            nap(0.1)\n") == ["g"]
    assert sleeping_functions("import time\ntime.sleep(0)\n") == ["<module>"]
    assert sleeping_functions("import time\ndef f(cond):\n    cond.wait(1)\n    time.monotonic()\n") == []


def test_nothing_in_the_package_sleeps():
    """Code that waits for an outcome waits on the agency (``Agency.wait``), not
    on a clock; ``agentway serve`` idles on an event until it is interrupted."""
    found = [f"{path.stem}.{where}" for path in MODULES
             for where in sleeping_functions(path.read_text(encoding="utf-8"))]
    assert found == []


def unread_options(names: list[str], sources: list[str]) -> list[str]:
    """The ``names`` that no source reads as an attribute of something called
    ``opts`` (``opts.x``, ``self.opts.x``, ``config.opts.x``)."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id == "opts") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "opts"
                ):
                    read.add(node.attr)
    return [name for name in names if name not in read]


def test_the_scan_finds_an_option_nobody_reads():
    sources = ["def f(opts):\n    return opts.a\n", "class C:\n    def g(self):\n        self.opts.b\n"]
    assert unread_options(["a", "b", "c"], sources) == ["c"]
    assert unread_options(["a"], ["def f(opts):\n    opts.a = 1\n"]) == ["a"]  # a write is not a read
    assert unread_options(["a"], ["def f(other):\n    return other.a\n"]) == ["a"]


def test_every_transport_option_is_read():
    names = [f.name for f in dataclasses.fields(TransportOpts)]
    assert unread_options(names, [path.read_text(encoding="utf-8") for path in MODULES]) == []


def unread_constants(sources: dict[str, str]) -> list[str]:
    """The upper-case names that a module of ``sources`` (module name to source)
    binds at its top level and that no source reads, as a bare name or as an
    attribute (``wire.MAGIC``); one ``module.NAME`` entry each."""
    constant = re.compile(r"_?[A-Z][A-Z0-9_]*$")
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            bound += [(module, t.id) for t in targets if isinstance(t, ast.Name) and constant.match(t.id)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in bound if name not in read]


def test_the_scan_finds_a_constant_nobody_reads():
    assert unread_constants({"m": "LIMIT = 1\nWIDTH: int = 2\nprint(WIDTH)\n"}) == ["m.LIMIT"]
    assert unread_constants({"a": "_TABLE = {}\n", "b": "from . import a\na._TABLE.get(1)\n"}) == []
    assert unread_constants({"a": "LIMIT = 1\n", "b": "from .a import LIMIT\nx = [LIMIT]\n"}) == []
    assert unread_constants({"m": "LIMIT = 1\ndef f():\n    global LIMIT\n    LIMIT = 2\n"}) == ["m.LIMIT"]
    assert unread_constants({"m": "limit = 1\nclass C:\n    LIMIT = 2\n"}) == []  # not module constants


def test_every_module_constant_is_read():
    """When the last code that reads a constant goes, the constant goes with it."""
    assert unread_constants({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == []


def error_frames_built(source: str) -> list[str]:
    """Calls that build a ``Frame`` of kind ``ERROR`` (``Frame(FrameKind.ERROR, ...)``,
    ``wire.Frame(kind=wire.FrameKind.ERROR)``), one entry per call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        kind = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "kind"), None)
        if name == "Frame" and isinstance(kind, ast.Attribute) and kind.attr == "ERROR":
            found.append(f"line {node.lineno}")
    return found


def test_the_scan_finds_an_error_frame_built():
    assert error_frames_built("Frame(FrameKind.ERROR, payload)\n") == ["line 1"]
    assert error_frames_built("x = 1\nwire.Frame(kind=wire.FrameKind.ERROR)\n") == ["line 2"]
    assert error_frames_built("Frame(FrameKind.ACK)\nwire.nack(ERR_BAD_FRAME, 'no')\n") == []
    assert error_frames_built("if frame.kind == FrameKind.ERROR:\n    pass\n") == []


def test_only_wire_builds_an_error_frame():
    """Every refusal and failure report is a ``wire.nack``."""
    found = {path.name: error_frames_built(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: len(lines) for name, lines in found.items() if lines} == {"wire.py": 1}


def wrapped_names_imported(source: str, spans: list[str]) -> list[str]:
    """The functions of ``spans`` (``"wire.decode_frame"``) that ``source`` imports
    by name from their ``agentway`` module (``from .wire import decode_frame``),
    one ``line N: module.name`` entry each. The tracer wraps the module
    attribute, so a call through such a name goes uncounted."""
    wrapped = {tuple(span.split(".", 1)) for span in spans}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.level or node.module.startswith("agentway.")
        ):
            module = node.module.rsplit(".", 1)[-1]
            found += [f"line {node.lineno}: {module}.{alias.name}"
                      for alias in node.names if (module, alias.name) in wrapped]
    return found


def test_the_scan_finds_a_traced_function_imported_by_name():
    spans = ["wire.decode_frame", "wire.encode_state"]
    assert wrapped_names_imported("from .wire import Frame, decode_frame\n", spans) == [
        "line 1: wire.decode_frame"
    ]
    assert wrapped_names_imported("import os\nfrom agentway.wire import encode_state as enc\n", spans) == [
        "line 2: wire.encode_state"
    ]
    assert wrapped_names_imported("from . import wire\nwire.decode_frame(b'')\n", spans) == []
    assert wrapped_names_imported("from .transport import decode_frame\n", spans) == []


def test_no_module_imports_a_traced_function_by_name():
    """``wire.decode_frame.calls`` and the other traced counts see every call."""
    spans = load_tracing().WIRE_SPANS
    found = {path.name: wrapped_names_imported(path.read_text(encoding="utf-8"), spans) for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    """The ``_``-prefixed names that a module of ``sources`` (module name to source)
    binds at its top level, by ``def``, ``class`` or assignment, and that no source
    reads, as a bare name or as an attribute; one ``module.name`` entry each."""
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else (
                    [node.target] if isinstance(node, ast.AnnAssign) else [])
                names = [n.id for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])
                         if isinstance(n, ast.Name)]
            bound += [(module, name) for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in bound if name not in read]


def test_the_scan_finds_a_private_helper_nobody_uses():
    assert unreferenced_private_helpers({"m": "def _a():\n    pass\ndef _b():\n    pass\n_b()\n"}) == ["m._a"]
    assert unreferenced_private_helpers({"m": "class _C:\n    pass\nclass D:\n    pass\n"}) == ["m._C"]
    assert unreferenced_private_helpers({"m": "_s = partial(f, n=1)\n_u8, _u16 = g(), g()\nx = [_u16]\n"}) == [
        "m._s", "m._u8"]
    assert unreferenced_private_helpers({"a": "def _f():\n    pass\n", "b": "from . import a\na._f()\n"}) == []
    assert unreferenced_private_helpers({"m": "class C:\n    def _g(self):\n        pass\n"}) == []  # not top level


def test_every_private_helper_is_used():
    """When the last code that calls a helper goes, the helper goes with it."""
    assert unreferenced_private_helpers({path.stem: path.read_text(encoding="utf-8") for path in MODULES}) == []


def built_defaults(source: str) -> list[str]:
    """``setdefault`` calls whose default is itself a call (``d.setdefault(k, Link(k))``):
    the default object is built on every call and dropped whenever the key is there.
    One ``line N`` entry each."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault" and len(node.args) == 2
            and isinstance(node.args[1], ast.Call)]


def test_the_scan_finds_a_default_built_on_every_call():
    assert built_defaults("x = 1\nby_peer.setdefault(peer, LinkStats()).record(n)\n") == ["line 2"]
    assert built_defaults("self.links.setdefault(i, transport.Link(i))\n") == ["line 1"]
    assert built_defaults("d.setdefault(k, [])\nd.setdefault(k, failure)\nd.setdefault(k)\n") == []
    assert built_defaults("d.get(k, Link(k))\n") == []


def test_no_setdefault_builds_its_default_on_every_call():
    """A counter or link made only when its key is new: ``get``, then build on a miss."""
    found = {path.name: built_defaults(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
