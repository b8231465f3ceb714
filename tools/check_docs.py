#!/usr/bin/env python
"""Documentation health check (run by CI's docs job).

Five checks, all stdlib-only:

1. every module under ``src/repro`` has a module docstring;
2. the documentation files the README promises actually exist;
3. the ``$``-prefixed shell lines inside README.md's fenced ``console``
   blocks are smoke-executed in a temporary directory, with ``gcx``
   resolved to ``python -m repro.cli`` — so the quickstart cannot rot;
4. docs/PERFORMANCE.md stays in sync with the benchmark and the hot path
   it describes: every workload and every end-to-end metric declared in
   ``BENCHMARK.json``, and every tokenizer tuning knob, must be mentioned;
5. the docs name only symbols that exist: every backticked CamelCase name,
   ``Class.member`` and bare ``name()`` in docs/*.md, README.md and
   examples/README.md resolves to a class, function or attribute defined
   under src/, tests/, benchmarks/ or examples/ (members through base
   classes), a Python builtin, or an entry of :data:`SYMBOL_ALLOWLIST`
   (a ``name()`` may also be an XQuery node test, ``text()`` or
   ``node()``).

Exit status 0 when everything passes; each failure is reported and the
script exits 1.

Usage:  python tools/check_docs.py  [--skip-readme-commands]
"""

from __future__ import annotations

import argparse
import ast
import builtins
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

REQUIRED_DOCS = [
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/CLI.md",
    "docs/CONCURRENCY.md",
    "docs/EARLINESS.md",
    "docs/JOINS.md",
    "docs/MULTIQUERY.md",
    "docs/PERFORMANCE.md",
    "docs/SCHEMA.md",
    "docs/SERVING.md",
    "examples/README.md",
]

#: Commands in README console blocks slower than a docs check should be
#: (or that block forever, like the server); they are validated for
#: subcommand existence but not executed.  "gcx serve " keeps its trailing
#: space so it does not also match "gcx serve-batch".
SKIP_PREFIXES = ("gcx table1", "gcx serve ")


def check_module_docstrings() -> list[str]:
    """Every module under src/repro must open with a docstring."""
    failures = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            failures.append(f"missing module docstring: {path.relative_to(REPO)}")
    return failures


#: Names the hot-path section of docs/PERFORMANCE.md must keep mentioning
#: (beyond the BENCHMARK.json names, which are cross-checked from the
#: file): the lexer's batch budget, the scan-time projection vocabulary,
#: the serve layer's route cap and the tokenizer's differential oracle.
PERFORMANCE_TERMS = (
    "BATCH_BYTES",
    "INLINE_PASS_BYTES",
    "Skipped",
    "Span",
    "text_decode_count",
    "_reference_lexer",
)


def check_performance_doc() -> list[str]:
    """docs/PERFORMANCE.md must track BENCHMARK.json and the tuning knobs."""
    path = REPO / "docs/PERFORMANCE.md"
    if not path.is_file():
        return []  # check_docs_exist already reports the absence
    text = path.read_text(encoding="utf-8")
    failures = []
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    for kind, entries in (
        ("workload", benchmark["workloads"]),
        ("end-to-end metric", benchmark["end_to_end"]),
    ):
        for entry in entries:
            if entry["name"] not in text:
                failures.append(
                    f"docs/PERFORMANCE.md does not mention the {kind} "
                    f"{entry['name']!r} (BENCHMARK.json changed without a "
                    "docs update?)"
                )
    for term in PERFORMANCE_TERMS:
        if term not in text:
            failures.append(f"docs/PERFORMANCE.md does not mention {term!r}")
    return failures


#: The files whose backticked symbols must exist, and where they may be
#: defined.
SYMBOL_DOCS = ("docs/*.md", "README.md", "examples/README.md")
SYMBOL_ROOTS = ("src", "tests", "benchmarks", "examples")

#: Backticked names the symbol check accepts although the repository does
#: not define them (Python builtins are accepted as well).
SYMBOL_ALLOWLIST = frozenset(
    {
        # concurrent.futures: the executor a SessionPool's workers run on.
        "ThreadPoolExecutor",
    }
)
#: Defined outside the repository: members of these are not checked.
_EXTERNAL = frozenset(dir(builtins)) | SYMBOL_ALLOWLIST

_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_CAPITALISED = re.compile(r"(?<![\w.])[A-Z]\w*")
_MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")
_CALLED = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\(\)")
#: XQuery node tests, spelled like calls: ``$x/text()``, ``dos::node()``.
_NODE_TESTS = frozenset({"text", "node"})
#: ``Name.suffix`` spelling a file name (``BENCHMARK.json``), not a member.
_FILE_SUFFIXES = frozenset(
    {"json", "jsonl", "md", "py", "xq", "dtd", "xml", "txt", "yml", "toml"}
)


def _is_camel_case(word: str) -> bool:
    return sum(c.isupper() for c in word) >= 2 and any(c.islower() for c in word)


class _SymbolIndex:
    """Every class (with its bases and members), function and assigned
    name or attribute defined in the Python files under ``roots``."""

    def __init__(self, roots: tuple[str, ...]) -> None:
        self.names: set[str] = set(_EXTERNAL)
        # class name -> [(base names, member names)], one per definition
        self.classes: dict[str, list[tuple[list[str], set[str]]]] = {}
        for root in roots:
            for path in sorted((REPO / root).rglob("*.py")):
                self._index(ast.parse(path.read_text(encoding="utf-8")))

    def _index(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                self.names.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                self.names.add(node.name)
                bases = [
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                ]
                self.classes.setdefault(node.name, []).append(
                    (bases, _class_members(node))
                )

    def has_member(self, name: str, member: str, seen: set[str] | None = None) -> bool:
        seen = set() if seen is None else seen
        if name in seen:
            return False
        seen.add(name)
        return any(
            member in members
            or any(self.has_member(base, member, seen) for base in bases)
            for bases, members in self.classes.get(name, ())
        )


def _class_members(node: ast.ClassDef) -> set[str]:
    """Methods, nested classes, class-level assignments and ``self.x``
    attributes of one class definition."""
    members: set[str] = set()
    for stmt in node.body:
        targets = (
            stmt.targets
            if isinstance(stmt, ast.Assign)
            else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        )
        members.update(t.id for t in targets if isinstance(t, ast.Name))
    for sub in ast.walk(node):
        if sub is node:
            continue
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(sub.name)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            members.add(sub.attr)
    return members


def check_doc_symbols() -> list[str]:
    """Backticked CamelCase names, ``Class.member`` and bare ``name()``
    spellings in the docs must name something the repository defines."""
    index = _SymbolIndex(SYMBOL_ROOTS)
    failures = []
    docs = sorted({path for pattern in SYMBOL_DOCS for path in REPO.glob(pattern)})
    for path in docs:
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for span in _CODE_SPAN.findall(line):
                unknown = [
                    f"{name}.{member}"
                    for name, member in _MEMBER.findall(span)
                    if member not in _FILE_SUFFIXES
                    and name not in _EXTERNAL
                    and not index.has_member(name, member)
                ]
                unknown += [
                    word
                    for word in _CAPITALISED.findall(span)
                    if _is_camel_case(word) and word not in index.names
                ]
                unknown += [
                    f"{name}()"
                    for name in _CALLED.findall(span)
                    if name not in _NODE_TESTS and name not in index.names
                ]
                failures += [
                    f"{path.relative_to(REPO)}:{lineno} names `{symbol}`, which "
                    "nothing under src/, tests/, benchmarks/ or examples/ defines"
                    for symbol in dict.fromkeys(unknown)
                ]
    return failures


def check_docs_exist() -> list[str]:
    return [
        f"missing documentation file: {name}"
        for name in REQUIRED_DOCS
        if not (REPO / name).is_file()
    ]


def readme_console_commands() -> list[str]:
    """The ``$ ...`` lines of README.md's fenced console blocks, in order."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    commands: list[str] = []
    for block in re.findall(r"```console\n(.*?)```", text, flags=re.DOTALL):
        for line in block.splitlines():
            if line.startswith("$ "):
                commands.append(line[2:].strip())
    return commands


def check_readme_commands() -> list[str]:
    """Smoke-execute the README quickstart in a scratch directory."""
    commands = readme_console_commands()
    if not commands:
        return ["README.md contains no ```console blocks with $ commands"]
    failures: list[str] = []
    gcx = f"{shlex.quote(sys.executable)} -m repro.cli"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            if command.startswith(SKIP_PREFIXES):
                subcommand = command.split()[1]
                if subcommand not in _known_subcommands():
                    failures.append(f"README references unknown subcommand: {command}")
                continue
            head = shlex.split(command)[0]
            if head == "gcx":
                shell_line = gcx + command[len("gcx"):]
            elif head in ("printf", "echo"):
                shell_line = command  # file-setup lines; need > redirection
            else:
                failures.append(
                    f"README uses unexpected command (not smoke-run): {command}"
                )
                continue
            proc = subprocess.run(
                shell_line,
                shell=True,
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=300,
                env=env,
            )
            if proc.returncode != 0:
                failures.append(
                    f"README command failed ({proc.returncode}): {command}\n"
                    f"    stderr: {proc.stderr.strip()[:300]}"
                )
    return failures


def _known_subcommands() -> set[str]:
    sys.path.insert(0, str(SRC))
    from repro.cli import main  # noqa: F401  (import validates the module)

    return {
        "run",
        "run-multi",
        "serve",
        "serve-batch",
        "analyze",
        "table1",
        "xmark",
        "ablations",
        "dtd",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-readme-commands",
        action="store_true",
        help="only check docstrings and file presence (fast)",
    )
    args = parser.parse_args()

    failures = (
        check_module_docstrings()
        + check_docs_exist()
        + check_performance_doc()
        + check_doc_symbols()
    )
    if not args.skip_readme_commands:
        failures += check_readme_commands()

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} docs check(s) failed", file=sys.stderr)
        return 1
    print("docs checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
