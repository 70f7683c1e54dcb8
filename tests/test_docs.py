"""Documentation must execute: fenced ``bash``/``python`` blocks in
README.md and docs/*.md are extracted and smoke-run, and markdown links
are checked, so the docs cannot silently rot.

Execution model
---------------
Each runnable block becomes one parametrized test.  Blocks run inside a
session-scoped *sandbox* directory that mirrors the repository root —
``src``, ``examples``, ``tests``, ``docs``, ``bench`` and
``pyproject.toml`` are symlinked.  Commands therefore execute exactly as
a user would run them from a checkout, while all artifacts (checkpoints,
registries, profiles) land in the sandbox.

Blocks in one file share the sandbox and run in document order, so a
later block may read artifacts an earlier one wrote (e.g. checkpoint →
resume).

Gating
------
A block annotated with ``<!-- docs-test: full -->`` on the line above
its fence only runs when ``REPRO_DOCS_FULL=1`` (the CI docs job sets
it); ``<!-- docs-test: skip -->`` never runs.  Everything else runs in
the regular suite.  Languages other than ``bash``/``sh``/``python``
(``text``, ``json``, ...) are illustrative and never executed.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
LINKED_FILES = DOC_FILES + [ROOT / "CHANGES.md", ROOT / "ROADMAP.md"]
FULL = os.environ.get("REPRO_DOCS_FULL", "") not in ("", "0")
#: guard: doc blocks that invoke pytest must never re-enter this module.
NESTED = os.environ.get("REPRO_DOCS_NESTED", "") not in ("", "0")

RUNNABLE = {"bash", "sh", "python"}
BLOCK_TIMEOUT = 900.0

_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_MARK_RE = re.compile(r"<!--\s*docs-test:\s*(\w+)\s*-->")


def extract_blocks(path: pathlib.Path):
    """(lang, code, first_line_no, mark) for every fenced block in ``path``."""
    blocks = []
    lines = path.read_text(encoding="utf-8").splitlines()
    i = 0
    mark = None
    while i < len(lines):
        m = _MARK_RE.search(lines[i])
        if m:
            mark = m.group(1)
            i += 1
            continue
        f = _FENCE_RE.match(lines[i])
        if f:
            lang = f.group(1).lower()
            start = i + 1
            j = start
            while j < len(lines) and not lines[j].startswith("```"):
                j += 1
            blocks.append((lang, "\n".join(lines[start:j]), start + 1, mark))
            mark = None
            i = j + 1
            continue
        if lines[i].strip():
            mark = None  # marks only bind to the directly following fence
        i += 1
    return blocks


def runnable_blocks():
    params = []
    for path in DOC_FILES:
        rel = path.relative_to(ROOT)
        for n, (lang, code, line, mark) in enumerate(extract_blocks(path)):
            if lang in RUNNABLE:
                params.append(
                    pytest.param(path, lang, code, mark, id=f"{rel}:L{line}:{lang}")
                )
    return params


@pytest.fixture(scope="session")
def sandbox(tmp_path_factory):
    """A fake checkout: the repository's sources, symlinked."""
    box = tmp_path_factory.mktemp("docs-sandbox")
    for name in ("src", "examples", "tests", "docs", "bench", "pyproject.toml"):
        (box / name).symlink_to(ROOT / name)
    return box


def _run(argv, cwd, env):
    # Its own session so a timeout can kill the whole tree (doc blocks
    # may background a server or fork backend workers).
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=BLOCK_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"doc block timed out after {BLOCK_TIMEOUT}s:\n{out}")
    finally:
        # Blocks may background processes (the README starts a server with
        # `&`); the block's own shutdown step normally reaps them, but a
        # failed block must not leak a server that poisons later blocks
        # (e.g. by holding the documented port).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return proc.returncode, out


@pytest.mark.skipif(NESTED, reason="doc block re-entered the doc tests")
@pytest.mark.parametrize("path,lang,code,mark", runnable_blocks())
def test_doc_block_executes(path, lang, code, mark, sandbox):
    if mark == "skip":
        pytest.skip("annotated docs-test: skip")
    if mark == "full" and not FULL:
        pytest.skip("needs REPRO_DOCS_FULL=1 (run by the CI docs job)")
    env = dict(os.environ)
    env["REPRO_DOCS_NESTED"] = "1"
    env.pop("PYTEST_CURRENT_TEST", None)
    if lang == "python":
        # Standalone python snippets don't set PYTHONPATH themselves.
        env["PYTHONPATH"] = str(sandbox / "src")
        script = sandbox / "_doc_block.py"
        script.write_text(code, encoding="utf-8")
        argv = [sys.executable, str(script)]
    else:
        script = sandbox / "_doc_block.sh"
        script.write_text(code, encoding="utf-8")
        argv = ["bash", "-e", str(script)]
    rc, out = _run(argv, cwd=sandbox, env=env)
    assert rc == 0, (
        f"documented {lang} block at {path.name} exited {rc}:\n"
        f"--- block ---\n{code}\n--- output ---\n{out}"
    )


# -- link integrity ---------------------------------------------------------------

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug (enough for our own headings)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(path: pathlib.Path) -> set:
    return {_slugify(h) for h in _HEADING_RE.findall(path.read_text(encoding="utf-8"))}


@pytest.mark.parametrize(
    "path", LINKED_FILES, ids=[str(p.relative_to(ROOT)) for p in LINKED_FILES]
)
def test_markdown_links_resolve(path):
    text = path.read_text(encoding="utf-8")
    problems = []
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external links are not checked (offline CI)
        base, _, anchor = target.partition("#")
        dest = path if not base else (path.parent / base)
        if not dest.exists():
            problems.append(f"{target}: file {base} does not exist")
            continue
        if anchor and dest.suffix == ".md" and anchor not in _anchors(dest):
            problems.append(f"{target}: no heading for anchor #{anchor}")
    assert not problems, f"{path.name}: broken links:\n" + "\n".join(problems)


def test_docs_mention_every_cli_command():
    """docs/api.md's CLI table must cover every registered subcommand."""
    from repro.cli import build_parser

    api = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    sub = next(
        a for a in build_parser()._actions
        if a.__class__.__name__ == "_SubParsersAction"
    )
    missing = [cmd for cmd in sub.choices if f"`{cmd}" not in api and f"| `{cmd}" not in api]
    assert not missing, f"docs/api.md misses CLI commands: {missing}"
