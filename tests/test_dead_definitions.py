"""The unreferenced-definition check in ``tools/dead_definitions.py``."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "dead_definitions.py"
_spec = importlib.util.spec_from_file_location("dead_definitions", _TOOL)
dead_definitions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dead_definitions)


def _write(root: Path, relative: str, text: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_flags_only_names_nothing_references(tmp_path):
    _write(tmp_path, "src/pkg/__init__.py", "from pkg.mod import exported\n"
                                            "__all__ = ['exported']\n")
    _write(tmp_path, "src/pkg/mod.py", '''
def exported():
    """Imported and listed in __all__, but never called."""


def called():
    pass


class Node:
    def __init__(self):
        self.hook = getattr(self, "by_string")

    def by_string(self):
        pass

    def by_attribute(self):
        pass

    def unused_method(self):
        pass


@register_scenario("name")
def recipe(params):
    pass
''')
    _write(tmp_path, "tests/test_mod.py",
           "from pkg.mod import Node, called\n"
           "called()\n"
           "Node().by_attribute()\n")
    dead = dead_definitions.find_dead(tmp_path)
    assert [(Path(path).name, name) for path, _, name in dead] == [
        ("mod.py", "exported"), ("mod.py", "unused_method")]
