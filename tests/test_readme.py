"""The README's Python examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # the example writes its world under the working directory
    exec(compile("\n".join(blocks), str(README), "exec"), {"__name__": "readme"})
