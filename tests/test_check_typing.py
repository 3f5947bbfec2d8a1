"""The typing gate, test-side.

Two layers:

* An AST annotation-completeness check that enforces the same
  contract as mypy's ``disallow_untyped_defs``/
  ``disallow_incomplete_defs`` on the fully-typed packages
  (``repro.check``, ``repro.core``, ``repro.obs``, ``repro.store``)
  and on the public surface of the fast engine.  It runs everywhere,
  including environments without mypy.
* The real pinned-mypy run (the CI static-analysis job's command),
  executed when mypy is importable and skipped otherwise; marked
  ``slow`` so tier-1 stays fast.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"

FULLY_TYPED = [
    SRC / "repro" / "check",
    SRC / "repro" / "core",
    SRC / "repro" / "obs",
    SRC / "repro" / "store",
]
PUBLIC_TYPED = [
    SRC / "repro" / "sim" / "fast_engine.py",
    SRC / "repro" / "sim" / "topology.py",
]


def _missing_annotations(tree, public_only):
    """Yield '<line> <name>: <what>' for incompletely-annotated defs."""

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                name = child.name
                skip = public_only and name.startswith("_") and name not in (
                    "__init__",
                )
                if not skip:
                    problems = []
                    if child.returns is None and name != "__init__":
                        problems.append("return")
                    args = child.args
                    positional = (
                        args.posonlyargs + args.args + args.kwonlyargs
                    )
                    if (
                        in_class
                        and positional
                        and positional[0].arg in ("self", "cls")
                    ):
                        positional = positional[1:]
                    extras = [
                        a
                        for a in (args.vararg, args.kwarg)
                        if a is not None
                    ]
                    for arg in positional + extras:
                        if arg.annotation is None:
                            problems.append(arg.arg)
                    if problems:
                        yield (
                            f"{child.lineno} {name}: "
                            f"{', '.join(problems)}"
                        )
                # Nested defs are held to the enclosing policy too.
                yield from visit(child, False)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, True)
            else:
                yield from visit(child, in_class)

    return visit(tree, False)


def _scan(paths, public_only):
    out = []
    for path in paths:
        files = (
            sorted(path.rglob("*.py")) if path.is_dir() else [path]
        )
        for f in files:
            tree = ast.parse(f.read_text(encoding="utf-8"))
            rel = f.relative_to(ROOT)
            out.extend(
                f"{rel}:{line}"
                for line in _missing_annotations(tree, public_only)
            )
    return out


class TestAnnotationCompleteness:
    def test_fully_typed_packages_have_complete_annotations(self):
        missing = _scan(FULLY_TYPED, public_only=False)
        assert missing == [], (
            "unannotated defs in fully-typed packages "
            "(see [tool.mypy] overrides in pyproject.toml):\n"
            + "\n".join(missing)
        )

    def test_engine_public_surfaces_are_annotated(self):
        missing = _scan(PUBLIC_TYPED, public_only=True)
        assert missing == [], (
            "unannotated public defs on the engine modules:\n"
            + "\n".join(missing)
        )


@pytest.mark.slow
def test_mypy_gate_passes():
    """The CI static-analysis mypy command, run in-process."""
    api = pytest.importorskip("mypy.api")
    stdout, stderr, status = api.run(
        [
            "-p", "repro.check",
            "-p", "repro.core",
            "-p", "repro.obs",
            "-p", "repro.store",
            "-m", "repro.sim.fast_engine",
            "-m", "repro.sim.topology",
        ]
    )
    assert status == 0, f"mypy gate failed:\n{stdout}\n{stderr}"
