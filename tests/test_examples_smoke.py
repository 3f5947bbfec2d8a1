"""Smoke tests: the example scripts' entry points run and report success.

The heavyweight examples are exercised indirectly through the library
tests; here we run the two cheapest ones end-to-end so a broken example
fails CI rather than a reader's first five minutes, and load every other
example and bench module so a dangling import fails here too.
"""

import importlib.util
import pathlib

import pytest


ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
BENCHMARKS = ROOT / "benchmarks"


def load_module(path: pathlib.Path):
    """Execute a script's top level under a non-``__main__`` name, so
    its imports and constants run but its ``main()`` does not."""
    spec = importlib.util.spec_from_file_location(
        f"smoke_{path.parent.name}_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_example(name: str):
    return load_module(EXAMPLES / f"{name}.py")


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "broadcast on a" in out
    assert "stalled" not in out


def test_reproduce_paper_all_claims_pass(capsys):
    load_example("reproduce_paper").main()
    out = capsys.readouterr().out
    assert "9/9 claims reproduced." in out
    assert "FAIL " not in out


def test_every_example_parses():
    for path in sorted(EXAMPLES.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        compile(source, str(path), "exec")
        assert '"""' in source  # every example carries a docstring


@pytest.mark.parametrize(
    "path",
    sorted(EXAMPLES.glob("*.py")) + sorted(BENCHMARKS.glob("bench_*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_script_top_level_loads(path):
    """Each example and bench module imports only names that exist."""
    load_module(path)
