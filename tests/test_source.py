"""The library's source keeps every line within 99 characters."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clockpred"


def test_no_library_line_is_over_99_characters():
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert long == []
