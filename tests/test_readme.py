"""README's `Library use` block runs as written and prints what its
comments say."""
import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_use_block_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", text,
                      re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "not-pn\n2.0\n"
