"""The library, its tools, notebooks and tests keep every line within 99 characters.

The acceptance gate, ``tests/test_acceptance.py``, is left as it was written.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ["src/clockpred/*.py", "tools/*.py", "notebooks/*.py", "tests/*.py"]


def test_no_library_line_is_over_99_characters():
    long = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for pattern in CHECKED
        for path in sorted(ROOT.glob(pattern))
        if path.name != "test_acceptance.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert long == []
