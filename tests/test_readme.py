import re
from pathlib import Path

import objident

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs_and_lists_the_api(monkeypatch, capsys):
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README, re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "refstack" in capsys.readouterr().out
    missing = [name for name in objident.__all__ if f"`{name}`" not in README]
    assert missing == []
