"""The documented library run path works as written.

Every ```python block in README.md and docs/*.md that builds a
``Session`` and calls ``.run(`` is executed in a temporary directory
(snippets may write sink files).  Blocks that talk to a running
``repro serve`` are not included: they need a live server.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"```python\n(.*?)```", re.S)


def run_blocks():
    blocks = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = path.read_text()
        for match in BLOCK.finditer(text):
            code = match.group(1)
            if "Session(" in code and ".run(" in code:
                line = text[: match.start()].count("\n") + 1
                blocks.append(pytest.param(code, id=f"{path.name}:{line}"))
    return blocks


def test_snippets_are_found():
    ids = {param.id.split(":")[0] for param in run_blocks()}
    assert {"README.md", "telemetry.md", "profiler.md"} <= ids


@pytest.mark.parametrize("code", run_blocks())
def test_run_snippet_executes(code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "<snippet>", "exec"), {"__name__": "__snippet__"})
