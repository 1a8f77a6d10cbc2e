import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    flags=re.M | re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
