"""The README's Python examples run as written: every ```python block, in
order, in one namespace, so a later block may use what an earlier one made."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["slots"]) == namespace["result"].updates > 0
