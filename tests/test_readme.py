"""The README's library quickstart runs as written, and its config table lists every key."""

import re
from pathlib import Path

from mimosim import experiment

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library quickstart'"
    return match.group(1)


def test_quickstart_runs(capsys):
    namespace = {}
    exec(compile(_quickstart(), str(README), "exec"), namespace)
    assert namespace["g"].shape == (8, 2, 4)
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_config_table_lists_every_key_with_its_default():
    section = README.read_text().split("## Sweep configs", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \|.*\| ([^|]+?) \|$", section, re.MULTILINE))
    assert sorted(rows) == sorted(experiment._KEYS)
    for key in experiment._KEYS:
        want = "required" if key in experiment._REQUIRED else f"`{experiment._DEFAULTS[key]}`"
        assert rows[key] == want, key
