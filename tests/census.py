"""Executed-code census: the ``src/repro`` functions no shipped program path runs.

A name audit finds functions without a caller; this finds functions that
never *run*.  The tool runs a fixed command list (:data:`COMMANDS`): CI's
smoke commands (:data:`SMOKE`, each line as CI runs it), the doc blocks CI's
docs job runs (:data:`DOC_BLOCKS`), the five benchmark workloads
(``BENCHMARK.json``) and every ``examples/*.py``.  Every Python process
those commands start records which functions it called, and the tool
writes one sorted list of the functions none of them called, each with its
line count and the reason it stays (:data:`KEEP`), to ``docs/census.md``::

    python tests/census.py     # runs every command (~2 min), writes the page

It reads the doc blocks through ``tests/test_docs.py``, so it needs pytest.

The record is a profiler hook (``sys.setprofile`` + ``threading.setprofile``)
installed by a ``sitecustomize`` module that the tool puts first on every
command's ``PYTHONPATH``.  A process writes its record when it exits: at
``atexit`` for a normal exit, and in a wrapper of ``os._exit`` for the forked
``local`` ranks (``multiprocessing`` ends a forked child with ``os._exit``
after ``BaseProcess._bootstrap`` returns, and a crash-injected rank calls it
directly), neither of which runs ``atexit``.  The benchmark resets its
program subprocesses' ``PYTHONPATH``, so its workloads start the program
through the hook's :data:`LAUNCHER` instead of ``-m repro``, and a doc
block's ``PYTHONPATH=src`` runs as the hook's own path (the hook, then
``src``).

This is a development tool, not part of the package: it lives beside the
tests and finds the page from its own place in the checkout.  CI's
``census`` job regenerates the page and fails when it differs from the
committed one, so a function that stops running shows up in the change
that stopped it; ``tests/test_census.py`` runs the hook on two commands
and checks the committed page and :data:`SMOKE` against ``ci.yml``.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

__all__ = ["SMOKE", "DOC_BLOCKS", "COMMANDS", "TAGS", "KEEP", "Function", "functions", "census",
           "decision", "render", "main"]

#: the checkout this file sits in (``tests/census.py``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOC = ROOT / "docs" / "census.md"
COMMAND_TIMEOUT_S = 900.0

_HOOK = '''\
"""Census hook: record every code object this process calls."""
import atexit, itertools, os, sys, threading, time

_OUT = {out!r}
#: ``-c`` launcher of ``python -m repro`` with this hook installed, for
#: callers that reset ``PYTHONPATH`` (the benchmark's program subprocesses).
LAUNCHER = ("-c", "import runpy, sys; sys.path.insert(0, {hook!r}); "
            "import _census_hook; runpy.run_module('repro', run_name='__main__', alter_sys=True)")
_seen = {{}}
_n = itertools.count()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def flush():
    names = {{(c.co_filename, c.co_firstlineno) for c in list(_seen.values())}}
    lines = sorted(f"{{f}}\\t{{n}}\\n" for f, n in names if "repro" in f)
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{time.time_ns()}}-{{next(_n)}}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


_os_exit = os._exit


def _exit(code):
    flush()
    _os_exit(code)


os._exit = _exit
atexit.register(flush)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

#: Shell helper every command sees: ``refused`` asserts exit status 2 and
#: the one-line refusal.  ``python`` (this interpreter) and ``repro``
#: (``python -m repro``, exec'd, so ``$!`` of ``repro serve &`` is the
#: server) are executables first on ``PATH``.
_PRELUDE = """\
set -e
refused() { if "$@" 2> refused.txt; then return 1; else test $? -eq 2; fi; grep -q '^repro: bad ' refused.txt; }
"""

_FIRST_ANSWER = """\
python -c "import sys; from repro.logic import Theory, parse_clause; \
from repro.service.registry import TheoryRegistry; \
TheoryRegistry(sys.argv[1]).publish('trains', \
Theory([parse_clause('eastbound(A) :- has_car(A, C), short(C), closed(C).')]), \
provenance={'dataset': 'trains', 'seed': '0', 'scale': 'small'})" reg
python -c "import sys, repro.cli, repro.service.server; \
svc = repro.service.server.Service(slots=1, registry_dir=sys.argv[1]); \
assert svc.handle({'op': 'query', 'theory': 'trains', 'examples': ['eastbound(t0)']})['covered'] == [True]; \
svc.close()" reg"""

_CONSOLE_SCRIPT = """\
repro learn trains --p 2 --backend local
repro learn trains --width nolimit
repro export trains exported
python -c "from repro.logic import parse_program; n = [len(parse_program(open(f'exported/{f}').read())) \
for f in ('bk.pl', 'pos.f', 'neg.n', 'modes.pl')]; assert n[1:3] == [20, 4] and min(n) > 0, n\""""

_RESUME_JOB = """\
python -c "from repro.service.jobs import JobSpec, run_job; \
run_job(JobSpec('krki', 'p2mdie', p=2), checkpoint_dir='jk', max_epochs=2)"
python -c "from repro.logic.io import theory_to_prolog; from repro.service.jobs import JobSpec, run_job; \
print(theory_to_prolog(run_job(JobSpec('krki', 'p2mdie', p=2)).theory))" > job.txt
repro resume jk/epoch_0002.ckpt > job_resumed.txt
diff <(grep -v '^%' job.txt | grep .) <(grep -v '^%' job_resumed.txt | grep .)"""

_LIVE_TELEMETRY = """\
repro serve --port 7341 --metrics-port 9464 --slots 2 \\
    --state-dir jobs --registry-dir registry --trace-out serve-trace.jsonl &
for i in $(seq 1 100); do curl -sf -o /dev/null http://127.0.0.1:9464/metrics && break; sleep 0.2; done
repro jobs submit trains --register-as trains --wait --port 7341
repro loadgen trains --requests 20 --rate 40 --batch 20 --port 7341
curl -s http://127.0.0.1:9464/metrics | grep -q repro_query_latency_seconds
repro loadgen trains --stream --shards 4 --requests 5 --rate 40 --batch 20 --port 7341
repro registry --registry-dir registry promote trains 1
repro jobs submit trains --register-as trains --wait --port 7341
repro loadgen trains --requests 5 --rate 40 --batch 20 --port 7341
repro registry --registry-dir registry promote trains 2
repro loadgen trains --requests 5 --rate 40 --batch 20 --port 7341
repro jobs status job-0001 --port 7341
repro jobs cancel job-0001 --port 7341 | grep -qx '% cancelled=False'
repro jobs gc --keep 1 --port 7341
repro registry --registry-dir registry show trains --version 1
repro registry --registry-dir registry diff trains 1 2
repro registry --registry-dir registry gc trains --keep 1
repro jobs shutdown --port 7341
wait
test -s serve-trace.jsonl"""

_IDLE_SIGTERM = """\
repro serve --port 7343 --state-dir jobs-idle --registry-dir registry-idle --auth-token sesame &
SERVE_PID=$!
for i in $(seq 1 100); do (exec 3<>/dev/tcp/127.0.0.1/7343) 2>/dev/null && break; sleep 0.2; done
exec 3<>/dev/tcp/127.0.0.1/7343
echo '{"op": "ping"}' >&3
read -r -t 10 PONG <&3
repro jobs status --port 7343 --token sesame
repro jobs status --port 7343 2>&1 | grep -q 'authentication required'
kill -TERM $SERVE_PID
wait $SERVE_PID
exec 3>&-"""

_WORKLOAD = """\
python - <<'EOF'
import json, sys, _census_hook
sys.path.insert(0, "bench")
import workloads
out = workloads.run_workload("{name}", json.load(open("bench/golden.json")), 0, 1.0, True,
                             launcher=lambda i: _census_hook.LAUNCHER)
assert out.correct, (out.failed, out.problems)
EOF"""

#: Arguments an example runs with (those of ``tests/test_examples.py``).
EXAMPLE_ARGS = {
    "fault_tolerance.py": "--p 2",
    "mesh_width_ablation.py": "--p 2",
    "pyrimidines_crossval.py": "--folds 2 --p 2",
}

_CRASH = "examples/faultplans/crash_and_straggler.json"
_BENCH_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

def _doc_blocks() -> list:
    """(label, bash) of every doc block CI's docs job runs
    (``REPRO_DOCS_FULL=1``), read through ``tests/test_docs.py``, except the
    one that runs pytest: a test run calls what the tests call, not what
    the program runs."""
    import test_docs

    blocks = []
    for path in test_docs.DOC_FILES:
        rel = path.relative_to(ROOT).as_posix()
        for n, (lang, code, _, mark) in enumerate(test_docs.extract_blocks(path), 1):
            if lang not in test_docs.RUNNABLE or mark == "skip" or "-m pytest" in code:
                continue
            script = f"python - <<'EOF'\n{code}\nEOF" if lang == "python" else code
            blocks.append((f"docs: {rel}, block {n}", script))
    return blocks


#: (label, bash) of CI's smoke steps, each ``repro …`` line as CI runs it
#: (``tests/test_census.py`` checks them against ``ci.yml``).  Labels name
#: the CI job and step.
SMOKE = [
    ("tests: start-up imports",
     'python -c "import repro.cli"\npython -c "import repro.service"\n'
     'python -c "import repro.cli; from repro.service import serve"'),
    ("tests: a server's first answer", _FIRST_ANSWER),
    ("tests: learn trains in process",
     "python -c \"from repro.cli import main; main(['learn', 'trains'])\""),
    ("tests: console-script smoke", _CONSOLE_SCRIPT),
    ("tests: resume from a CLI checkpoint",
     "repro learn krki --p 2 --checkpoint-dir ck > full.txt\n"
     "repro resume ck/epoch_0002.ckpt > resumed.txt\n"
     "diff <(grep -v '^%' full.txt | grep .) <(grep -v '^%' resumed.txt | grep .)"),
    ("tests: resume from a job checkpoint", _RESUME_JOB),
    ("docs: paper tables 1-6", "repro tables --which 1,2,3,4,5,6 > paper-tables.txt"),
    ("chaos-smoke: full plan",
     "repro loadgen --chaos examples/faultplans/service_chaos.json --requests 12 --rate 60 "
     "--batch 40 --bench-out chaos-report.json"),
    ("chaos-smoke: reset-only plan",
     "repro loadgen --chaos examples/faultplans/service_resets.json --requests 10 --rate 60 "
     "--batch 30"),
    ("chaos-smoke: a plan of the other kind is refused",
     f"refused repro serve --fault-plan {_CRASH}\n"
     "refused repro learn trains --p 2 --fault-plan examples/faultplans/service_chaos.json"),
    ("chaos-smoke: live telemetry", _LIVE_TELEMETRY),
    ("chaos-smoke: SIGTERM with an idle client", _IDLE_SIGTERM),
    ("fault-injection-smoke: trains on sim",
     f"repro learn trains --p 2 --backend sim --fault-plan {_CRASH}"),
    ("fault-injection-smoke: krki on local",
     f"repro learn krki --p 2 --backend local --fault-plan {_CRASH}"),
    ("fault-injection-smoke: sweep",
     "repro faults --dataset trains --ps 2 --timeout 1.0 --strategies p2mdie,covpar,independent"),
]

DOC_BLOCKS = _doc_blocks()

#: (label, bash) — run in order, each in a fresh directory with ``src``,
#: ``examples`` and ``bench`` linked in.
COMMANDS = [
    *SMOKE,
    *DOC_BLOCKS,
    *(
        (f"bench: {name}", _WORKLOAD.format(name=name))
        for name in _BENCH_WORKLOADS
    ),
    *(
        (f"examples: {path.name}",
         " ".join(["python", f"examples/{path.name}", EXAMPLE_ARGS.get(path.name, "")]).strip())
        for path in sorted((ROOT / "examples").glob("*.py"))
    ),
]

#: The reasons a never-called function may stay, by tag.
TAGS = {
    "failure": "a failure or refusal path; the named test reaches it",
    "reference": "a reference or an accessor that the named tests check the program against",
    "ci-only": "runs only in CI's MPI job (mpi4py and mpiexec)",
    "spawn": "runs only where ranks start by spawn, not fork; the named test starts them so",
    "rule-bk": "the engine path for rule-defined background knowledge; the named test reaches it",
    "format": "a field of a committed format that no shipped run fills; the named test writes it",
    "lifecycle": "runs when the collector frees an object; the named test frees one",
    "pinned": "an unchanged test pins the name",
    "stub": "an interface stub, a null object's method or a `__repr__` / `__str__` debug aid",
}

_LOCAL_FAILURE = "tests/backend/test_local_transport.py::TestFailureModes"

#: Why each never-called function stays: ``key -> (tag, reason)``.  A key
#: is ``path::qualname`` (one function), ``path::Class.`` (its methods) or
#: ``path::`` (the module).  The most specific key wins.
KEEP = {
    "backend/base.py::Backend._run": ("stub", "abstract: each backend overrides it"),
    "backend/base.py::Backend.__repr__": ("stub", "debug aid"),
    "backend/base.py::WallClockContext._ship": ("stub", "abstract: each transport overrides it"),
    "backend/base.py::WallClockContext._receive": ("stub", "abstract: each transport overrides it"),
    "backend/local.py::LocalProcessBackend._run_placed.<locals>.": ("failure", _LOCAL_FAILURE),
    "backend/local.py::LocalProcessBackend.__repr__": ("stub", "debug aid"),
    "backend/mpi.py::": ("ci-only", "the mpi-smoke job runs `--backend mpi` under mpiexec"),
    "backend/sim.py::SimBackend.__repr__": ("stub", "debug aid"),
    "cluster/costmodel.py::CostModel.seconds_for_ops": ("stub", "abstract: OpsCostModel "
                                                        "overrides it"),
    "cluster/message.py::Message.__str__": ("stub", "debug aid"),
    "cluster/process.py::ProcContext.clock": (
        "reference", "tests/cluster/test_scheduler.py::TestPointToPoint::"
                     "test_latency_advances_clock reads a process's virtual time"),
    "cluster/process.py::SimProcess.run": ("stub", "abstract: each process overrides it"),
    "fault/plan.py::MessageLoss.__post_init__": (
        "failure", "tests/fault/test_plan.py::TestEvents::test_loss_nth_one_based"),
    "fault/plan.py::PlanFormat.replace": (
        "pinned", "tests/test_knobs.py::test_the_fault_plan_format_is_written_once"),
    "ilp/bottom.py::BottomLiteral.__str__": ("stub", "debug aid"),
    "ilp/bottom.py::BottomClause.__str__": ("stub", "debug aid"),
    "ilp/bottom.py::BottomClause.as_clause": (
        "reference", "tests/ilp/test_bottom.py::TestBodySaturation::"
                     "test_target_entailed_by_bottom"),
    "ilp/config.py::_signature_fields": (
        "failure", "tests/fault/test_checkpoint.py::TestGuards::"
                   "test_mismatch_names_fields_and_values"),
    "ilp/config.py::signature_mismatches": (
        "failure", "tests/fault/test_checkpoint.py::TestGuards::"
                   "test_mismatch_names_fields_and_values"),
    "ilp/coverage.py::covers": ("reference", "tests/ilp/test_bottom_invariants.py::"
                                "TestBottomCoversSeed"),
    "ilp/modes.py::ModeSet.validate": ("reference", "tests/datasets/test_generators.py::"
                                       "TestSmallScale::test_modes_validate"),
    "ilp/refinement.py::SearchRule.__str__": ("stub", "debug aid"),
    "ilp/theory.py::predicts": ("reference", "tests/service/test_query.py checks batched "
                                "answers against it"),
    "logic/builtins.py::eval_arith": ("rule-bk", "tests/logic/test_engine.py::TestBuiltins::"
                                      "test_arith_comparisons"),
    "logic/clause.py::Clause.__repr__": ("stub", "debug aid"),
    "logic/clause.py::Theory.__repr__": ("stub", "debug aid"),
    "logic/engine.py::QueryBudget.__repr__": ("stub", "debug aid"),
    "logic/engine.py::Engine.__getstate__": (
        "spawn", "tests/logic/test_cover_plan.py::test_an_engine_pickles_without_its_plans"),
    "logic/engine.py::Engine.__setstate__": (
        "spawn", "tests/logic/test_cover_plan.py::test_an_engine_pickles_without_its_plans"),
    "logic/engine.py::Engine.prove": ("reference", "tests/datasets/test_generators.py::"
                                      "TestTrainsSpecifics::test_target_learnable_structure"),
    "logic/parser.py::_Parser.err": ("failure", "tests/logic/test_parser.py::TestErrors"),
    "logic/parser.py::_Parser.parse_list": (
        "rule-bk", "list syntax, in which recursive background (member/2, append/3) is "
                   "written; tests/logic/test_parser.py::TestLists"),
    "logic/terms.py::_drop_const": ("lifecycle", "tests/logic/test_intern.py::"
                                    "TestConstInterning::test_unreferenced_const_leaves_the_table"),
    "logic/terms.py::Var.__repr__": ("stub", "debug aid"),
    "logic/terms.py::Const.__repr__": ("stub", "debug aid"),
    "logic/terms.py::Struct.__repr__": ("stub", "debug aid"),
    "logic/unify.py::occurs_in": ("reference", "tests/logic/test_unify.py::"
                                  "test_occurs_check_only_restricts"),
    "logic/unify.py::unify": ("reference", "tests/logic/test_unify.py::"
                              "test_unifier_is_a_solution"),
    "obs/span.py::_NullTracer.record": ("stub", "the disabled tracer's no-op"),
    "parallel/master.py::Master._end_epoch.<locals>.prune": (
        "failure", "tests/fault/test_golden_healing.py"),
    "parallel/wire.py::_home_decoder": ("failure", "tests/parallel/test_wire.py::"
                                        "TestRetiredCodes"),
    "service/errors.py::Overloaded.__init__": (
        "failure", "tests/service/test_resilience.py::TestAdmission::test_queue_depth_shed"),
    "service/errors.py::ShuttingDown.__init__": (
        "failure", "tests/service/test_job_scheduler.py::TestWaitersAtClose"),
    "service/scheduler.py::JobScheduler.result": (
        "reference", "tests/service/test_job_scheduler.py::TestQueueing::"
                     "test_jobs_run_and_match_direct_execution"),
}


# -- the functions ------------------------------------------------------------------


@dataclass(frozen=True)
class Function:
    path: str       # relative to src/repro
    qualname: str
    first: int      # first line: the first decorator's, else the def's (co_firstlineno)
    lines: range    # the def through its last line

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


def functions(src: pathlib.Path = SRC) -> dict:
    """``(path, first line) -> Function`` for every ``def`` under ``src/repro``."""
    found = {}
    package = src / "repro"

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first)] = Function(
                    path, qual, first, range(child.lineno, child.end_lineno + 1))
                walk(child, path, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package).as_posix()
        walk(ast.parse(file.read_text(encoding="utf-8")), path, "")
    return found


def _called(record_dir: pathlib.Path, src: pathlib.Path) -> set:
    package = str((src / "repro").resolve()) + os.sep
    real = {}
    called = set()
    for record in record_dir.iterdir():
        for line in record.read_text(encoding="utf-8").splitlines():
            filename, _, first = line.rpartition("\t")
            if filename not in real:
                real[filename] = os.path.realpath(filename)
            path = real[filename]
            if path.startswith(package):
                called.add((pathlib.Path(path[len(package):]).as_posix(), int(first)))
    return called


# -- running the commands -----------------------------------------------------------


def census(commands=COMMANDS, src: pathlib.Path = SRC, log=print) -> set:
    """Run ``commands`` under the hook; return the ``(path, first line)``
    keys of every function some process called."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tmp = pathlib.Path(tmp)
        hook, records = tmp / "hook", tmp / "records"
        hook.mkdir()
        records.mkdir()
        (hook / "_census_hook.py").write_text(
            _HOOK.format(out=str(records), hook=str(hook)), encoding="utf-8")
        (hook / "sitecustomize.py").write_text("import _census_hook\n", encoding="utf-8")
        (hook / "python").symlink_to(sys.executable)
        (hook / "python3").symlink_to(sys.executable)
        (hook / "repro").write_text(
            f"#!/bin/sh\nexec {shlex.quote(sys.executable)} -m repro \"$@\"\n", encoding="utf-8")
        (hook / "repro").chmod(0o755)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([str(hook), str(src)])
        env["PATH"] = os.pathsep.join([str(hook), env.get("PATH", "")])
        for n, (label, script) in enumerate(commands):
            box = tmp / f"cmd{n}"
            box.mkdir()
            for name in ("src", "examples", "bench"):
                (box / name).symlink_to(ROOT / name)
            t0 = time.perf_counter()
            # Its own session, so that whatever a command left behind (a
            # server it started in the background) goes with it.
            script = script.replace("PYTHONPATH=src ", 'PYTHONPATH="$PYTHONPATH" ')
            proc = subprocess.Popen(
                ["bash", "-c", _PRELUDE + script], cwd=box, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                output, _ = proc.communicate(timeout=COMMAND_TIMEOUT_S)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.communicate()
            log(f"{time.perf_counter() - t0:7.1f} s  {label}")
            if proc.returncode != 0:
                raise RuntimeError(f"census command {label!r} exited {proc.returncode}:\n"
                                   f"{output[-4000:]}")
        return _called(records, src)


# -- the page -----------------------------------------------------------------------


def decision(name: str):
    """The ``(tag, reason)`` of :data:`KEEP` that covers ``name``, or None."""
    best = None
    for key, value in KEEP.items():
        covers = key == name or (key.endswith(("::", ".")) and name.startswith(key))
        if covers and (best is None or len(key) > len(best[0])):
            best = (key, value)
    return best and best[1]


def _cell(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def render(funcs: dict, called: set) -> str:
    """``docs/census.md`` for the functions in ``funcs`` that ``called`` misses."""
    dead = sorted((f for k, f in funcs.items() if k not in called),
                  key=lambda f: (f.path, f.first))
    all_lines = {(f.path, n) for f in funcs.values() for n in f.lines}
    dead_lines = {(f.path, n) for f in dead for n in f.lines}
    out = [
        "# Executed-code census",
        "",
        "<!-- generated by tests/census.py; do not edit -->",
        "",
        "`python tests/census.py` runs the commands below with a profiler hook",
        "in every Python process they start, forked `local` ranks included, and",
        "lists each `src/repro` function that none of them called. Each entry",
        "carries the one reason it stays; a function with none is deleted.",
        "",
        f"**{len(dead)} of {len(funcs)} functions never called: {len(dead_lines)} of "
        f"{len(all_lines)} function lines.**",
        "",
        "## Why an entry stays",
        "",
        "| tag | meaning |",
        "|---|---|",
        *(f"| `{tag}` | {meaning} |" for tag, meaning in TAGS.items()),
        "",
        "## Commands",
        "",
        "Each runs in a fresh directory; `repro` is `python -m repro`, and a",
        "doc block's `PYTHONPATH=src` runs as the hook's path (the hook, then `src`).",
        "",
    ]
    for label, script in COMMANDS:
        out += [f"- {label}", "", "  ```text", *(f"  {line}" for line in script.splitlines()),
                "  ```", ""]
    out += [
        "## Never called",
        "",
        "| function | lines | tag | reason |",
        "|---|---:|---|---|",
    ]
    for f in dead:
        tag, reason = decision(f.name) or ("**untagged**", "")
        out.append(f"| `{_cell(f.name)}` | {len(f.lines)} | {tag} | {_cell(reason)} |")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args:
        print(__doc__)
        return 2
    called = census()
    DOC.write_text(render(functions(), called), encoding="utf-8")
    print(f"wrote {DOC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
