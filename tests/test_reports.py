"""``reports.emit_json`` writes the bytes ``json.dumps`` would."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom import cli, reports
from cihom.catalog import catalog_ids
from cihom.polynomials import InvariantError


def _dumps(document):
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10 ** 300, max_value=10 ** 300),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 0.0, 1e300, -1e-300]),
    st.text(), st.text(st.characters(max_codepoint=0x20)),
    st.text(st.characters(min_codepoint=0x80)))

# Keys of one dict are all str, or all int and bool, or one None: json.dumps
# sorts the keys before it writes them, and None does not sort with ints.
_DICTS = [lambda v: st.dictionaries(st.text(), v, max_size=5),
          lambda v: st.dictionaries(st.one_of(st.integers(), st.booleans()), v, max_size=5),
          lambda v: st.dictionaries(st.none(), v, max_size=1)]

_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda v: st.one_of(st.lists(v, max_size=5), st.lists(v, max_size=5).map(tuple),
                        *(d(v) for d in _DICTS)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_the_writer_gives_the_bytes_of_json_dumps(document):
    assert reports.emit_json(document) == _dumps(document)


@pytest.mark.parametrize("document", [{}, [], (), {"a": {}}, {"a": [[], {}, ()]}, "",
                                      {1: "a", True: "b"}, {None: [None]}, {"x": -0.0},
                                      {"é\x00\n\"\\": " \U0001f600\x1f"}])
def test_the_writer_on_edge_documents(document):
    assert reports.emit_json(document) == _dumps(document)


def _documents(monkeypatch, argvs):
    """The documents ``cihom`` emits for each argument list, as built."""
    seen = []

    def capture(document):
        seen.append(document)
        return reports.emit_json(document)

    monkeypatch.setattr(cli, "emit_json", capture)
    for argv in argvs:
        cli.main(argv)
    assert len(seen) == len(argvs)
    return seen


def test_the_writer_on_every_catalog_document(monkeypatch):
    script = Path(__file__).parent / "data" / "session_all.ci"
    argvs = [["--example", entry_id, "--field", tag, "--format", "json"]
             for tag in ("f32003", "f3", "f4294967311", "rational")
             for entry_id in catalog_ids()]
    argvs.append(["--script", str(script), "--format", "json"])
    for document in _documents(monkeypatch, argvs):
        assert reports.emit_json(document) == _dumps(document)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_float_is_refused_with_the_json_message(value):
    for document in ({"results": [{"depth": value}]}, {value: 1}):
        with pytest.raises(ValueError) as json_error:
            _dumps(document)
        with pytest.raises(InvariantError) as ours:
            reports.emit_json(document)
        assert str(ours.value) == f"the document is not strict JSON: {json_error.value}"
