"""The executed-code census (``tests/census.py``) on two commands, the
committed list's decisions, and the census's smoke lines against CI's."""

import ast
import pathlib
import re
import shutil
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import census  # noqa: E402

PLANTED = '''\
def used():
    return 1


def planted():
    return 2


used()
'''


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A copy of the package with one planted module, and what two
    commands called in it."""
    src = tmp_path_factory.mktemp("census") / "src"
    shutil.copytree(census.SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (src / "repro" / "_planted.py").write_text(PLANTED, encoding="utf-8")
    commands = [
        ("learn p=2 local", "repro learn trains --p 2 --backend local"),
        ("planted module", 'python -c "import repro._planted"'),
    ]
    funcs = census.functions(src)
    return funcs, census.census(commands, src=src, log=lambda line: None)


def _key(funcs, name):
    (key,) = [k for k, f in funcs.items() if f.name == name]
    return key


def test_forked_ranks_are_counted(run):
    """Only the forked worker ranks evaluate rules: a census that missed
    them would list the whole worker as never called."""
    funcs, called = run
    assert _key(funcs, "parallel/worker.py::P2Worker._evaluate") in called
    assert _key(funcs, "cli.py::_cmd_learn") in called


def test_a_planted_function_is_never_called(run):
    funcs, called = run
    assert _key(funcs, "_planted.py::used") in called
    assert _key(funcs, "_planted.py::planted") not in called
    page = census.render(funcs, called)
    assert "| `_planted.py::planted` | 2 | **untagged** |" in page
    assert "`_planted.py::used`" not in page


def test_committed_entries_each_carry_a_keep_tag():
    rows = [line for line in census.DOC.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `") and "::" in line]
    assert rows
    tags = [row.split("|")[3].strip() for row in rows]
    assert set(tags) <= set(census.TAGS), sorted(set(tags) - set(census.TAGS))
    names = [row.split("`")[1] for row in rows]
    stale = [key for key in census.KEEP
             if not any(n == key or (key.endswith(("::", ".")) and n.startswith(key))
                        for n in names)]
    assert not stale, stale


def test_the_most_specific_keep_key_decides(monkeypatch):
    monkeypatch.setattr(census, "KEEP", {
        "m.py::": ("stub", "module"),
        "m.py::C.": ("failure", "class"),
        "m.py::C.f": ("reference", "function"),
    })
    assert census.decision("m.py::C.f") == ("reference", "function")
    assert census.decision("m.py::C.g") == ("failure", "class")
    assert census.decision("m.py::h") == ("stub", "module")
    assert census.decision("n.py::h") is None


def test_a_nested_function_counts_its_lines_once():
    outer = census.Function("m.py", "outer", 1, range(1, 6))
    inner = census.Function("m.py", "outer.<locals>.inner", 2, range(2, 4))
    other = census.Function("m.py", "other", 7, range(7, 9))
    funcs = {("m.py", f.first): f for f in (outer, inner, other)}
    page = census.render(funcs, called={("m.py", 7)})
    assert "**2 of 3 functions never called: 5 of 7 function lines.**" in page
    assert "| `m.py::outer.<locals>.inner` | 2 | **untagged** |" in page


CI = census.ROOT / ".github" / "workflows" / "ci.yml"


def drift(smoke, ci_text: str) -> list:
    """The ``repro …`` lines of ``smoke`` commands that CI does not run:
    each must be a line of ``ci_text`` as ``PYTHONPATH=src python -m repro …``
    (a step on the checkout) or as ``repro …`` (a step that installed the
    console script), and each label must name a CI job."""
    jobs = set(re.findall(r"^  ([\w-]+):\s*$", ci_text, re.MULTILINE))
    lines = {re.sub(r"^(- )?run: ", "", line.strip()) for line in ci_text.splitlines()}
    missing = []
    for label, script in smoke:
        if label.split(":")[0] not in jobs:
            missing.append(f"{label}: no such CI job")
        for line in script.splitlines():
            if line.startswith("repro ") and not (
                f"PYTHONPATH=src python -m {line}" in lines or line in lines
            ):
                missing.append(f"{label}: {line}")
    return missing


def test_every_smoke_line_is_a_line_ci_runs():
    assert not drift(census.SMOKE, CI.read_text(encoding="utf-8"))


def test_a_smoke_line_ci_does_not_run_is_drift():
    ci_text = "jobs:\n  docs:\n    steps:\n      - run: PYTHONPATH=src python -m repro tables\n"
    assert drift([("docs: tables", "repro tables")], ci_text) == []
    assert drift([("docs: tables", "repro tables --which 1")], ci_text) == [
        "docs: tables: repro tables --which 1"]
    assert drift([("lint: tables", "repro tables")], ci_text) == ["lint: tables: no such CI job"]


_TEST_REF = re.compile(r"(tests/[\w/]+\.py)(?:::(\w+))?(?:::(\w+))?")


def _defines(tree, names) -> bool:
    """Whether ``tree`` defines the class or function ``names[0]`` at its
    top level, and ``names[1]`` inside it."""
    body = tree.body
    for name in names:
        found = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and n.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_test_a_keep_reason_names_exists():
    named = [(key, m.group(1), [g for g in m.groups()[1:] if g])
             for key, (_, reason) in census.KEEP.items()
             for m in _TEST_REF.finditer(reason)]
    assert named
    stale = []
    for key, path, names in named:
        file = census.ROOT / path
        if not file.is_file() or not _defines(ast.parse(file.read_text(encoding="utf-8")), names):
            stale.append(f"{key}: {'::'.join([path, *names])}")
    assert not stale, stale
