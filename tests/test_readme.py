"""The README's library examples run as written, and its example config
parses."""

import json
import re
from pathlib import Path

from dqsim.harness import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_examples_run():
    # Each python block of the section, in order, in one namespace: a later
    # block may use what an earlier one defined.
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_minimal_config_parses():
    # The CLI section's example config passes every check a run makes
    # before it builds anything.
    section = README.read_text().split("\nA minimal config:\n", 1)[1]
    block = re.match(r"\s*```json\n(.*?)```", section, re.DOTALL).group(1)
    parse_config(json.loads(block))
