"""The README's "Library usage" block runs as written, so a change to the
public API that it shows fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md: Library usage", "exec"), {})
    out = capsys.readouterr().out
    assert "3/5 0.6" in out
