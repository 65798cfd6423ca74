"""The README's library example runs as written, at a smaller size."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SMALL_N = "4096"


def library_block() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    code, swaps = re.subn(r"\b\d{6,}\b", SMALL_N, library_block())
    assert swaps == 2  # n_minds and the scenario sample size
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["run"].record.pair_count("+", "+") == 0
    assert all(c.all_consistent for c in ns["run"].report_checks)
    assert ns["report"].n == int(SMALL_N)
