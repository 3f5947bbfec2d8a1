#!/usr/bin/env python3
"""Cross-check documented CLI commands against the real ``repro --help``.

Walks every fenced code block in README.md and docs/*.md, extracts the
``repro …`` / ``python -m repro …`` command lines (joining backslash
continuations), and verifies that

* the subcommand exists, and
* every ``--flag`` it uses is accepted by that subcommand's parser

so documentation cannot drift ahead of (or behind) the CLI without
failing the CI docs job.  The converse is enforced too: every live
subcommand must appear in at least one documented command block, so a
new command cannot ship undocumented.  Relative markdown links are
checked for existence as a bonus — a renamed doc breaks the build,
not the reader.  So is every backticked dotted ``repro.…`` name: its
longest importable module prefix is imported and the rest resolved by
``getattr``, so a deleted module, class or function cannot stay cited.
The same two checks cover the code: every ``.py`` file under ``src/``,
``benchmarks/``, ``examples/`` and ``scripts/`` may only cite
resolvable backticked ``repro.…`` names (the Sphinx ``~repro.…`` form
included) and ``*.md`` files that exist.  Finally, ``docs/SEARCH.md``'s
Theorem 2 table must equal the ``theorem2-search`` rows pinned in
``tests/golden/claims.json``, and the section's documented command must
run the pinned search (greedy, budget 3, search seed 0).

Usage: ``python scripts/check_docs.py`` (exit status 0 = clean).
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
CODE_FILES = [
    path
    for top in ("src", "benchmarks", "examples", "scripts")
    for path in sorted((ROOT / top).rglob("*.py"))
]

FENCE = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)
FLAG = re.compile(r"(--[a-z][a-z0-9-]*)")
LINK = re.compile(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)")
CITED = re.compile(r"`~?(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
MARKDOWN = re.compile(r"(?<![\w*/.-])((?:[\w-]+/)*[\w-]+\.md)\b")

SEARCH_DOC = ROOT / "docs" / "SEARCH.md"
GOLDEN_CLAIMS = ROOT / "tests" / "golden" / "claims.json"
THEOREM2_SECTION = "## Search vs. Theorem 2"
#: The search ``tests/test_golden_claims.py`` runs for its
#: ``theorem2-search`` pins; the documented command must name it.
THEOREM2_SEARCH = {
    "--searcher": "greedy",
    "--budget": "3",
    "--search-seed": "0",
}
TABLE_ROW = re.compile(r"^\| [a-z_]+ \| \d+ \|.*$", re.MULTILINE)


def known_flags() -> dict:
    """subcommand -> set of accepted ``--flags``, from the live parser."""
    parser = build_parser()
    out = {}
    for action in parser._subparsers._group_actions:  # argparse internals
        for name, sub in action.choices.items():
            out[name] = set(FLAG.findall(sub.format_help())) | {"--help"}
    return out


def command_lines(block: str):
    """Yield logical ``repro …`` command lines, continuations joined."""
    logical = []
    pending = ""
    for line in block.splitlines():
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        logical.append(line)
    for line in logical:
        for prefix in ("repro ", "python -m repro "):
            if line.startswith(prefix):
                yield line, line[len(prefix):].split()
                break


def check_commands(
    path: pathlib.Path,
    text: str,
    flags_by_sub: dict,
    documented: set,
):
    problems = []
    for block in FENCE.findall(text):
        for line, argv in command_lines(block):
            if not argv:
                continue
            sub = argv[0]
            if sub not in flags_by_sub:
                problems.append(
                    f"{path.name}: unknown subcommand {sub!r} in: {line}"
                )
                continue
            documented.add(sub)
            used = {f.split("=")[0] for f in argv[1:] if f.startswith("--")}
            stale = sorted(used - flags_by_sub[sub])
            if stale:
                problems.append(
                    f"{path.name}: `repro {sub}` does not accept "
                    f"{', '.join(stale)} (from: {line})"
                )
    return problems


def check_links(path: pathlib.Path, text: str):
    problems = []
    for target in LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(f"{path.name}: broken link -> {target}")
    return problems


def resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_cited_names(label: str, text: str, cited: set):
    problems = []
    for name in sorted(set(CITED.findall(text))):
        cited.add(name)
        if not resolves(name):
            problems.append(f"{label}: `{name}` does not resolve")
    return problems


def check_markdown_mentions(path: pathlib.Path, text: str):
    """Every ``*.md`` a code file names exists at the repository root,
    under ``docs/`` or beside the file."""
    problems = []
    for name in sorted(set(MARKDOWN.findall(text))):
        bases = (ROOT, ROOT / "docs", path.parent)
        if not any((base / name).exists() for base in bases):
            rel = path.relative_to(ROOT)
            problems.append(f"{rel}: cites missing {name}")
    return problems


def pinned_theorem2_rows() -> list:
    """The pinned Theorem 2 search rows, as SEARCH.md prints them."""
    pins = json.loads(GOLDEN_CLAIMS.read_text(encoding="utf-8"))
    return [
        f"| {r['algorithm']} | {r['n']} | {r['scripted']} | {r['search']} "
        f"| {r['ratio']:.2f} | {r['bound']} | {r['verdict']} |"
        for r in pins["theorem2-search"]
    ]


def check_theorem2_table(text: str):
    """SEARCH.md's Theorem 2 table is the pins, from the pinned search."""
    start = text.find(THEOREM2_SECTION)
    if start < 0:
        return [f"{SEARCH_DOC.name}: no {THEOREM2_SECTION!r} section"]
    end = text.find("\n## ", start + 1)
    section = text[start : end if end >= 0 else len(text)]
    problems = []
    if TABLE_ROW.findall(section) != pinned_theorem2_rows():
        problems.append(
            f"{SEARCH_DOC.name}: the Theorem 2 table differs from the "
            f"theorem2-search pins in {GOLDEN_CLAIMS.name}"
        )
    searches = [
        dict(zip(argv, argv[1:]))
        for block in FENCE.findall(section)
        for _, argv in command_lines(block)
        if argv[:1] == ["search"]
    ]
    if not any(
        THEOREM2_SEARCH.items() <= search.items() for search in searches
    ):
        flags = " ".join(f"{k} {v}" for k, v in THEOREM2_SEARCH.items())
        problems.append(
            f"{SEARCH_DOC.name}: the Theorem 2 section documents no "
            f"`repro search {flags}` command"
        )
    return problems


def main() -> int:
    flags_by_sub = known_flags()
    problems = []
    documented = set()
    cited = set()
    checked = 0
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        problems += check_commands(path, text, flags_by_sub, documented)
        problems += check_links(path, text)
        problems += check_cited_names(path.name, text, cited)
        checked += 1
    code_cited = set()
    for path in CODE_FILES:
        text = path.read_text(encoding="utf-8")
        problems += check_cited_names(
            str(path.relative_to(ROOT)), text, code_cited
        )
        problems += check_markdown_mentions(path, text)
    problems += check_theorem2_table(SEARCH_DOC.read_text(encoding="utf-8"))
    for sub in sorted(set(flags_by_sub) - documented):
        problems.append(
            f"subcommand `repro {sub}` appears in no documented "
            "command block (README.md / docs/*.md)"
        )
    if problems:
        for problem in problems:
            print(f"STALE-DOCS: {problem}", file=sys.stderr)
        return 1
    print(
        f"docs check: {checked} files, CLI commands and links consistent "
        f"with repro --help ({', '.join(sorted(flags_by_sub))}); "
        f"{len(cited)} cited repro names resolve; {len(CODE_FILES)} code "
        f"files cite {len(code_cited)} resolvable repro names and only "
        "existing markdown files; the SEARCH.md Theorem 2 table matches "
        "its pins"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
