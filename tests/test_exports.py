"""The package's public names, and the README's examples of their use."""

import re

import citeineq
from helpers import ROOT, run_python


def test_every_export_resolves_once():
    assert len(set(citeineq.__all__)) == len(citeineq.__all__)
    missing = [name for name in citeineq.__all__ if not hasattr(citeineq, name)]
    assert missing == []


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        script = tmp_path / f"readme_{i}.py"
        script.write_text(block, encoding="utf-8")
        result = run_python(script, cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, ""), block
