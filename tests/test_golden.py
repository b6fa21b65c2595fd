"""Every default CLI command writes the bytes checked in under
``tests/golden``; see ``tests/golden.py`` to rewrite them."""

import shutil

import pytest

import golden


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_outputs_match_golden(tmp_path, name):
    changed = golden.differences(name, golden.read(name),
                                 golden.run(name, tmp_path / "out"))
    assert not changed, "\n".join(changed) + golden.version_note()


def test_regenerate_rewrites_only_the_named_commands(tmp_path, monkeypatch,
                                                     capsys):
    for name in ("solve-sphere", "solve-lantern"):
        shutil.copytree(golden.GOLDEN / name, tmp_path / name)
    (tmp_path / "solve-lantern" / "stdout").write_bytes(b"stale\n")
    monkeypatch.setattr(golden, "GOLDEN", tmp_path)
    monkeypatch.setattr(golden, "VERSIONS", tmp_path / "versions.json")
    golden.regenerate(["solve-sphere"])
    assert capsys.readouterr().out == ("no golden file changed\n"
                                       "byte-identical: solve-sphere\n")
    assert (tmp_path / "solve-lantern" / "stdout").read_bytes() == b"stale\n"
    with pytest.raises(SystemExit, match="unknown command solve-torus"):
        golden.regenerate(["solve-torus"])
