"""The README's library example runs as printed and gives the values its comments state."""

import re
from pathlib import Path

from bchcover import Word

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["m"] == 11
    assert (namespace["d"], namespace["exactness"]) == (7, "exact")
    assert namespace["result"].covering_radius == 3
    assert namespace["report"].is_a_covered
    answer = namespace["answer"]
    assert answer.entries == ((Word.from_text("00001111111001011000011"), 3),)
    assert answer.radius_used == 3
    events = capsys.readouterr().out.splitlines()  # printed by on_event, one per weight 1..R
    assert len(events) == 3 and all(line.startswith("StratumEvent(") for line in events)
