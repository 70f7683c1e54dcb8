"""A ``repro`` process imports what its subcommand runs.

``pyproject.toml`` declares no runtime dependency, so the package must work
where numpy and scipy are absent, and ``import repro.cli`` — the fixed cost
of every CLI run, every ``repro serve`` start and every forked worker —
must not load the evaluation harness or the service tier either.  Module
sets are asserted, never wall-clock: see docs/performance.md ("Start-up
and fixed costs") for the timings.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# None in sys.modules makes ``import scipy`` raise ImportError: the
# interpreter of an environment that only ran ``pip install .``.
_NO_THIRD_PARTY = "import sys\nsys.modules['scipy'] = sys.modules['numpy'] = None\n"


def _python(prog: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True, env=env, timeout=120
    )


def test_import_cli_loads_only_what_every_subcommand_needs():
    out = _python(
        "import sys, repro.cli\n"
        "heavy = ('scipy', 'numpy', 'repro.experiments', 'repro.service')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_coverage_plans_add_one_module_to_start_up():
    # The learn_* setup_s guard: repro.cli loads the plan compiler (the
    # learner's hot path needs it) and the compiler imports nothing the
    # engine beside it had not already loaded.
    out = _python(
        "import sys, repro.logic.engine\n"
        "before = set(sys.modules)\n"
        "import repro.logic.cover_plan\n"
        "print(sorted(set(sys.modules) - before))\n"
        "import repro.cli\n"
        "print(sys.modules['repro.ilp.coverage'].compile_plan is repro.logic.cover_plan.compile_plan)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["['repro.logic.cover_plan']", "True"]


def test_import_service_loads_no_event_loop_machinery():
    # The front door is blocking sockets and threads: asyncio, and the ssl
    # and concurrent.futures it drags in, stay out of a serving process.
    out = _python(
        "import sys, repro.cli, repro.service\n"
        "gone = ('asyncio', 'ssl', 'concurrent')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in gone))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_learn_runs_without_numpy_or_scipy():
    out = _python(_NO_THIRD_PARTY + "from repro.cli import main\nsys.exit(main(['learn', 'trains']))\n")
    assert out.returncode == 0, out.stderr
    assert "eastbound" in out.stdout


def test_sequential_learn_loads_no_parallel_stack():
    # `learn --p 1` runs mdie in-process: the strategies, the backends, the
    # fault layer, the simulator and multiprocessing all stay unloaded.
    out = _python(
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['learn', 'trains']) == 0\n"
        "parallel = ('repro.parallel', 'repro.backend', 'repro.fault', 'multiprocessing',\n"
        "            'repro.cluster.message', 'repro.cluster.process', 'repro.cluster.scheduler')\n"
        "print(sorted(m for m in sys.modules if m.startswith(parallel)))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_cli_backend_choices_are_the_backend_names():
    # The CLI spells the choices itself so that parsing loads no backend.
    from repro.backend import BACKEND_NAMES
    from repro.cli import build_parser

    choices = [
        action.choices
        for parser in _parsers(build_parser())
        for action in parser._actions
        if "--backend" in action.option_strings
    ]
    # learn, resume, faults, tables, trace and `jobs submit`
    assert len(choices) == 6
    assert all(tuple(c) == BACKEND_NAMES for c in choices)


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_table6_runs_without_numpy_or_scipy():
    # The one command that needs the paired t-test.
    out = _python(
        _NO_THIRD_PARTY
        + "from repro.cli import main\n"
        "sys.exit(main(['tables', '--which', '6', '--datasets', 'trains',"
        " '--ps', '2', '--folds', '2']))\n"
    )
    assert out.returncode == 0, out.stderr
    assert "Table 6" in out.stdout


def test_serve_help_runs_without_numpy_or_scipy():
    out = _python(_NO_THIRD_PARTY + "from repro.cli import main\nmain(['serve', '--help'])\n")
    assert out.returncode == 0, out.stderr
    assert "--port" in out.stdout
