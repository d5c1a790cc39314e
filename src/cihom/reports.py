"""Report emission: human-readable text and a stable structured document.

The structured document uses fixed field names and sorted keys, carries the
tool version, field tag and bounds, and contains no wall-clock data, so the
same session with the same seed emits identical bytes on every run.  It is
strict JSON: ``emit_json`` refuses NaN and infinities, which every report
value writes through ``rings.encode_infinite``.  ``emit_json`` writes the
document itself, byte for byte as ``json.dumps(sort_keys=True, indent=2)``
would, because with an indent the standard encoder runs in pure Python.
"""

from __future__ import annotations

import json
import math

from . import __version__
from .polynomials import InvariantError


def make_document(results: list, field_tag: str, bounds: dict) -> dict:
    return {
        "tool_version": __version__,
        "field_tag": field_tag,
        "bounds": dict(sorted(bounds.items())),
        "provenance": {
            "engine": "cihom",
            "deterministic": True,
            "note": "expected catalog values tagged reference/trivial/derived",
        },
        "results": results,
    }


_escape = json.encoder.encode_basestring_ascii


def _scalar(o) -> str:
    """A JSON scalar as ``json.dumps`` writes it; ValueError for NaN and the
    infinities (json's own error, raised by json) and TypeError for a
    value JSON has no form for."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            json.dumps(o, indent=2, allow_nan=False)   # raises the ValueError
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _write(o, pad: str, out: list):
    """Append the JSON text of ``o`` to ``out``; ``pad`` is a newline and
    the indent of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(_escape(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        out.append("[")
        sep = inner
        for v in o:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        out.append("{")
        sep = inner
        for k, v in sorted(o.items()):
            out.append(sep)
            out.append(_escape(k) if isinstance(k, str) else '"' + _scalar(k) + '"')
            out.append(": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    else:
        out.append(_scalar(o))


def emit_json(document: dict) -> str:
    """The document as strict JSON, the bytes of ``json.dumps(document,
    sort_keys=True, indent=2, allow_nan=False) + "\\n"``: sorted keys,
    two-space indent, str, int, float, bool and None keys written as json
    writes them.  ``json.dumps`` is not called because with an indent
    CPython skips its C encoder and runs the generators of
    ``json.encoder._make_iterencode``, which take about twice as long as
    this one recursive pass (1.9-2.2 ms against 0.97 ms for the eight
    catalog documents, 46 kB, with CPython 3.11 on one Xeon core).  A
    non-finite float left in the document is an engine fault (every depth
    reaches it through ``encode_infinite``)."""
    out: list = []
    try:
        _write(document, "\n", out)
    except ValueError as err:
        raise InvariantError(f"the document is not strict JSON: {err}") from None
    out.append("\n")
    return "".join(out)


def _text_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        simple = all(not isinstance(x, (dict, list)) for x in obj)
        if simple:
            lines.append(f"{pad}{', '.join(str(x) for x in obj)}")
        else:
            for x in obj:
                lines.extend(_text_lines(x, indent))
                lines.append("")
            while lines and lines[-1] == "":
                lines.pop()
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _tor_table(profile: dict) -> list:
    lines = [f"Tor profile: {profile['module']} vs {profile['argument']} "
             f"over {profile['ring']} (bound {profile['bound']})"]
    header = f"{'i':>3}  {'vanishes':>8}  {'beta0':>5}  {'depth':>5}  {'dim':>4}  hilbert"
    lines.append(header)
    rows = [profile["tor0"]] + profile["entries"]
    for e in rows:
        hf = ",".join(str(v) for v in e["hilbert"])
        lines.append(f"{e['index']:>3}  {str(e['vanishes']):>8}  {e['betti0']:>5}  "
                     f"{str(e['depth']):>5}  {str(e['dim']):>4}  ({hf})")
    van = profile.get("vanishing", {})
    lines.append(f"window vanishing: {van.get('all_vanish_in_window')} "
                 f"tier: {van.get('tier')}")
    return lines


def _checks_table(result: dict) -> list:
    lines = []
    for c in result.get("checks", []):
        mark = "pass" if c["ok"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']} ({c['provenance']})")
        if not c["ok"]:
            lines.append(f"         expected: {c['expected']}")
            lines.append(f"         actual:   {c['actual']}")
    return lines


def emit_text(document: dict) -> str:
    lines = [f"cihom {document['tool_version']}  field={document['field_tag']}",
             f"bounds: {document['bounds']}", ""]
    for result in document["results"]:
        kind = result.get("kind", "result")
        lines.append(f"== {kind}: {result.get('title', '')}")
        body = result.get("data", {})
        if kind == "example":
            lines.append(f"example {body.get('id')}: "
                         + ("PASS" if body.get("pass") else "FAIL"))
            lines.extend(_checks_table(body))
        elif kind == "tor":
            lines.extend(_tor_table(body["tor_profile"]))
        else:
            lines.extend(_text_lines(body, indent=1))
        lines.append("")
    return "\n".join(lines) + "\n"
