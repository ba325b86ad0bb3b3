import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs():
    # a name removed from the package must not stay documented
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
