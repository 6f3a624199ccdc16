"""The README's library quickstart runs as written."""

import re
from pathlib import Path

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
