"""Statements of ``src/knotgauge`` that no tier-1 test runs.

    python3 tools/line_reach.py                # the whole tier-1 suite
    python3 tools/line_reach.py tests/test_cli.py   # or some of its files

Runs pytest in this process, with the tier-1 flags, under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records the lines run in
the package's own files only.  It then prints ``file:line: statement`` for
each function-body statement that never ran; module-level statements,
which run on import, are not counted.  Test outcomes are ignored: the
tracer slows every call into the package, so wall-time gates can fail
under it, and the tier-1 run without the tracer judges every test.

Exits 1 when a printed statement is not named in the README section
"Statements no test reaches", which lists each one by file and statement
text with the reason it cannot run; a README entry that names no such
statement is reported on stderr.  Needs no coverage package.
"""

import ast
import contextlib
import io
import re
import sys
import threading
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "knotgauge"
README = ROOT / "README.md"
SECTION = "## Statements no test reaches"
#: an entry of the README section: - `src/knotgauge/<file>.py`: `<statement>`
ENTRY = re.compile(r"^- `(src/knotgauge/[^`]+\.py)`: `([^`]+)`")
#: tokens that start no logical line
SKIP = (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER)
#: the tier-1 flags of the CI run, without the timing report
PYTEST_FLAGS = ["-q", "-W", "error", "--continue-on-collection-errors",
                "-p", "no:cacheprovider"]


def code_lines(code):
    """Lines holding an instruction of ``code`` or of a code object nested
    in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def logical_lines(source):
    """``{first line: text}`` of every logical line of ``source``, its
    physical lines stripped and joined by one space; a compound statement's
    logical line is its header."""
    lines = source.splitlines()
    texts, start = {}, None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if start is None and tok.type not in SKIP:
            start = tok.start[0]
        elif tok.type == tokenize.NEWLINE:
            texts[start] = " ".join(
                ln.strip() for ln in lines[start - 1:tok.end[0]])
            start = None
    return texts


def body_statements(path):
    """``{line: text}`` of the function-body statements of a module whose
    first line holds an instruction, so that running them records it."""
    source = path.read_text()
    texts = logical_lines(source)
    runnable = set()
    for const in compile(source, str(path), "exec").co_consts:
        if hasattr(const, "co_lines"):   # functions, methods, class bodies
            runnable |= code_lines(const)
    stmts = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in fn.body:
                for stmt in ast.walk(node):
                    if (isinstance(stmt, ast.stmt)
                            and stmt.lineno in runnable):
                        stmts[stmt.lineno] = texts[stmt.lineno]
    return stmts


def run_traced(args):
    """Run pytest with ``args`` under the tracer; return the lines run per
    file of the package and pytest's exit code."""
    files = {str(p): set() for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(start)
    sys.settrace(start)
    try:
        # pytest's report goes to stderr, so stdout holds the statements
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main([*PYTEST_FLAGS, *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return files, code


def named_in_readme():
    """The (file, statement) pairs of the README section."""
    named, inside = set(), False
    for line in README.read_text().splitlines():
        if line.startswith("## "):
            inside = line == SECTION
        elif inside and (m := ENTRY.match(line)):
            named.add((m.group(1), m.group(2)))
    return named


def main(argv):
    files, code = run_traced(argv or ["tests"])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"pytest did not run the suite (exit {code})", file=sys.stderr)
        return 2
    named = named_in_readme()
    missed = []
    for path in sorted(files):
        rel = Path(path).relative_to(ROOT).as_posix()
        missed += [(rel, line, stmt) for line, stmt
                   in sorted(body_statements(Path(path)).items())
                   if line not in files[path]]
    for rel, line, stmt in missed:
        print(f"{rel}:{line}: {stmt}")
    for rel, stmt in sorted(named - {(rel, stmt) for rel, _, stmt in missed}):
        print(f"note: the README names {rel}: {stmt}, which ran",
              file=sys.stderr)
    unnamed = sum((rel, stmt) not in named for rel, _, stmt in missed)
    print(f"{len(missed)} statements never ran, {unnamed} of them not named "
          f"in the README", file=sys.stderr)
    return 1 if unnamed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
