"""Only ``spaces`` branches on a space's kind.

Every other module of the package asks ``spaces`` what a space can do, so
it names none of the kind constants listed in ``spaces.KINDS`` and reads
no ``.kind``.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frechetforest"


def _kind_names() -> list:
    """The constant names of the tuple ``spaces.KINDS``, read from source."""
    tree = ast.parse((PACKAGE / "spaces.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["KINDS"]):
            return [elt.id for elt in node.value.elts]
    raise AssertionError("spaces.py assigns no KINDS tuple")


def test_only_tree_growth_asks_whether_sets_solve_together():
    # ``tree.grow_trees`` alone picks lockstep or one-by-one growth
    hits = sorted(path.name for path in PACKAGE.glob("*.py")
                  if "solves_sets_together" in path.read_text(
                      encoding="utf-8"))
    assert hits == ["spaces.py", "tree.py"]


def test_no_module_but_spaces_names_a_space_kind():
    names = _kind_names()
    assert names == ["WASSERSTEIN", "SPD_LOGCHOLESKY", "SPD_AFFINE",
                     "SPHERE"]
    pattern = re.compile(r"\b(%s)\b|\.kind\b" % "|".join(names))
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "spaces.py"
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)]
    assert not hits, "\n".join(hits)
