"""Every default CLI command writes the bytes checked in under
``tests/golden``; see ``tests/golden.py`` to rewrite them."""

import pytest

import golden


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_outputs_match_golden(tmp_path, name):
    changed = golden.differences(name, golden.read(name),
                                 golden.run(name, tmp_path / "out"))
    assert not changed, "\n".join(changed) + golden.version_note()
