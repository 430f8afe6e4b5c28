"""README's library example runs as printed."""

import re
from pathlib import Path

from mazenav.worldsim import Action

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    actions = namespace["actions"]
    assert isinstance(actions, list) and all(isinstance(a, Action) for a in actions)
