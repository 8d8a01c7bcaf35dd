"""The mutant generator of ``tools/mutate.py`` on a small source string.

The sweep itself runs the whole suite once per mutant, so it is not part of
the suite; this checks that it makes each kind of mutant, one change each.
"""
import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SOURCE = """\
LIMIT = 1e-06  # a threshold
def f(x, y):
    if x < LIMIT and y == 2:
        raise ValueError("x")
    return 0.0 if x >= y else 2.0
"""


def test_makes_each_kind_of_mutant_once_per_site():
    keys = [key for key, _ in mutate.mutants(SOURCE, "m.py")]
    assert sorted(keys) == sorted([
        "m.py: LIMIT = 1e-06 | 1e-06 -> 1.5e-06",
        "m.py: if x < LIMIT and y == 2: | x < LIMIT and y == 2 -> x < LIMIT or y == 2",
        "m.py: if x < LIMIT and y == 2: | x < LIMIT -> x <= LIMIT",
        "m.py: if x < LIMIT and y == 2: | y == 2 -> y != 2",
        "m.py: raise ValueError(\"x\") | raise ValueError('x') -> pass",
        "m.py: return 0.0 if x >= y else 2.0 | x >= y -> x > y",
        "m.py: return 0.0 if x >= y else 2.0 | 2.0 -> 3.0",  # 0.0 * 1.5 is 0.0: no mutant
    ])


def test_each_mutant_differs_from_the_source_in_one_node():
    original = ast.dump(ast.parse(SOURCE))
    for key, source in mutate.mutants(SOURCE, "m.py"):
        mutant = ast.dump(ast.parse(source))
        assert mutant != original, key
        old, new = key.split(" | ")[1].split(" -> ")
        # undoing the one change gives back the source
        assert ast.dump(ast.parse(source.replace(new, old, 1))) == original, key


def test_each_listed_equivalent_has_a_reason():
    # whether each key still names a mutant is checked by the sweep: a test of
    # the source text here would fail on every mutant of a listed module
    listed = mutate.read_equivalents(TOOL.parent / "mutants_equivalent.txt")
    assert listed and all(key.split(":")[0].endswith(".py") and reason
                          for key, reason in listed.items())
