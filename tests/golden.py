"""Pinned outputs kept as golden files under ``tests/data/golden``.

``check(name, text)`` passes when ``text`` equals the golden file ``name``
byte for byte.  Otherwise it writes ``text`` to a temporary file outside
``tests/data`` and fails with what moved: for a ``.json`` file each JSON path
whose value differs, with the golden value and the new one; for any other
file the first differing line and a unified diff.  Re-recording a pin means
copying that temporary file over the golden one and giving the reason in
``CHANGES.md``.

A CLI output is stored exactly as it is printed; an in-process object is
stored as ``dump(obj)``.
"""

import difflib
import json
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
MAX_PATHS = 20
MAX_DIFF_LINES = 40
_ABSENT = object()  # a key or index one side of a JSON diff does not have


def dump(obj):
    """obj as indented JSON in its own key order, with a final newline."""
    return json.dumps(obj, indent=2) + "\n"


def check(name, text):
    """Fail unless ``text`` equals the golden file ``name`` byte for byte."""
    __tracebackhide__ = True  # pytest shows the caller's line, not this one
    path = GOLDEN / name
    golden = path.read_bytes().decode("utf-8") if path.exists() else None
    if text == golden:
        return
    new = Path(tempfile.mkdtemp(prefix="cihom-golden-")) / path.name
    new.write_bytes(text.encode("utf-8"))
    head = f"{name} moved; the new output is in {new}"
    if golden is None:
        raise AssertionError(f"{head}\nthere is no golden file {path}")
    moves = _json_moves(golden, text) if path.suffix == ".json" else None
    if moves is None:
        moves = _line_moves(golden, text, name, new)
    raise AssertionError(f"{head}\n{moves}")


def _json_moves(golden, text):
    """The JSON paths whose values differ, or None when either side is not JSON."""
    try:
        old, new = json.loads(golden), json.loads(text)
    except ValueError:
        return None
    moves = list(_paths(old, new, "$"))
    if not moves:
        return "the JSON values are equal: only the key order or the formatting differs"
    lines = [f"{path}: golden {_show(a)}, new {_show(b)}" for path, a, b in moves[:MAX_PATHS]]
    if len(moves) > MAX_PATHS:
        lines.append(f"... and {len(moves) - MAX_PATHS} more paths")
    return "\n".join(lines)


def _paths(a, b, path):
    """(path, golden value, new value) for each leaf where a and b differ;
    keys in a's order, then b's new keys."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{key}" if key.isidentifier() else f"{path}[{json.dumps(key)}]"
            yield from _paths(a.get(key, _ABSENT), b.get(key, _ABSENT), sub)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from _paths(a[i] if i < len(a) else _ABSENT,
                              b[i] if i < len(b) else _ABSENT, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:  # True == 1, yet a pin tells them apart
        yield path, a, b


def _show(value, width=120):
    shown = "(absent)" if value is _ABSENT else json.dumps(value)
    return shown if len(shown) <= width else shown[:width] + "..."


def _line_moves(golden, text, name, new):
    old_lines, new_lines = golden.splitlines(), text.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b),
                 min(len(old_lines), len(new_lines)))
    diff = difflib.unified_diff(old_lines, new_lines, f"golden/{name}", str(new), lineterm="")
    return "\n".join([f"first differing line: {first + 1}", *list(diff)[:MAX_DIFF_LINES]])
