import json
import re
import tempfile
from pathlib import Path

import pytest

import golden


def _failure(name, text):
    with pytest.raises(AssertionError) as info:
        golden.check(name, text)
    message = str(info.value)
    new = Path(re.search(r"the new output is in (\S+)", message).group(1))
    assert new.read_text() == text
    assert golden.GOLDEN not in new.parents
    return message


def test_a_moved_pin_names_what_moved(monkeypatch, tmp_path):
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    golden.GOLDEN.mkdir()
    pinned = {"results": [{"data": {"betti0": 0, "pass": True}}], "4.19": list(range(30))}
    (golden.GOLDEN / "out.json").write_text(golden.dump(pinned))
    (golden.GOLDEN / "out.txt").write_text("a\nb\nc\n")
    golden.check("out.json", golden.dump(pinned))
    golden.check("out.txt", "a\nb\nc\n")

    moved = {"results": [{"data": {"betti0": 1, "pass": 1}}], "4.19": list(range(30))}
    message = _failure("out.json", golden.dump(moved))
    assert "$.results[0].data.betti0: golden 0, new 1" in message
    assert "$.results[0].data.pass: golden true, new 1" in message
    message = _failure("out.json", golden.dump({**pinned, "4.19": [-1] * 25}))
    assert '$["4.19"][0]: golden 0, new -1' in message
    assert '$["4.19"][19]: golden 19, new -1' in message and '$["4.19"][20]' not in message
    assert "... and 10 more paths" in message
    message = _failure("out.json", golden.dump({"results": []}))
    assert '$.results[0]: golden {"data": {"betti0": 0, "pass": true}}, new (absent)' in message
    assert '$["4.19"]: golden [0, 1, 2' in message
    message = _failure("out.json", json.dumps(pinned, sort_keys=True))
    assert "only the key order or the formatting differs" in message

    message = _failure("out.txt", "a\nB\nc\n")
    assert "first differing line: 2" in message
    assert "-b\n+B" in message
    assert "there is no golden file" in _failure("new.txt", "x\n")
