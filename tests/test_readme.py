"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert blocks, "README has no python block"
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {k}", "exec"), {"__name__": "readme"})
