"""Report emission: human-readable text and a stable structured document.

The structured document uses fixed field names and sorted keys, carries the
tool version, field tag and bounds, and contains no wall-clock data, so the
same session with the same seed emits identical bytes on every run.
"""

from __future__ import annotations

import json

from . import __version__


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


def emit_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


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
