"""Every line of the package and test sources fits in 79 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 79


def test_no_line_is_longer_than_79_columns():
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT]
    assert not long_lines, "\n".join(long_lines)
