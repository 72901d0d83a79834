"""README.md's python blocks run as written, and its tables match the code."""

import re
from pathlib import Path

from dualview.cli import MINIMUM

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_minimum_table_is_cli_minimum():
    # each row of the "at least" table: its backticked keys, then their bound
    rows = re.findall(r"^\s*\| (`[^|]*) \| (\d+) \|$", README.read_text(), re.M)
    table = {key: int(low) for keys, low in rows for key in re.findall(r"`([^`]+)`", keys)}
    assert table == MINIMUM
