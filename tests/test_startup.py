"""A ``repro`` process imports what its subcommand runs.

``pyproject.toml`` declares no runtime dependency, so the package must work
where numpy and scipy are absent, and ``import repro.cli`` — the fixed cost
of every CLI run, every ``repro serve`` start and every forked worker —
must not load the evaluation harness or the service tier either.  Module
sets are asserted, never wall-clock: see docs/performance.md ("Start-up
and fixed costs") for the timings.
"""

import argparse
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the packages whose ``__init__`` resolves its re-exports on first use.
LAZY_PACKAGES = (
    "repro.parallel", "repro.backend", "repro.service", "repro.fault", "repro.obs",
    "repro.ilp", "repro.datasets",
)

#: generator modules; a process loads the one of each dataset it builds.
GENERATORS = tuple(
    f"repro.datasets.{name}"
    for name in ("carcinogenesis", "krki", "mesh", "pyrimidines", "trains")
)

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
        "            'repro.cluster.message', 'repro.cluster.process')\n"
        "print(sorted(m for m in sys.modules if m.startswith(parallel)))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_cli_backend_choices_are_the_backend_names():
    # One tuple: ``repro.run`` defines it, so parsing loads no backend, and
    # ``repro.backend`` re-exports it.
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
    assert all(c is BACKEND_NAMES for c in choices)


def test_query_only_server_loads_no_learner_stack(tmp_path):
    # A server that answers a query and runs an in-process mdie job needs
    # the wire codec of repro.parallel, not the parallel learner, and none
    # of the backends, the simulator or the fault layer.
    from repro.logic import Theory, parse_clause
    from repro.service.registry import TheoryRegistry

    rule = parse_clause("eastbound(A) :- has_car(A, C), short(C), closed(C).")
    TheoryRegistry(str(tmp_path)).publish(
        "trains", Theory([rule]), provenance={"dataset": "trains", "seed": "0", "scale": "small"}
    )
    out = _python(
        "import sys, repro.cli\n"
        "from repro.service import Service\n"
        f"svc = Service(slots=1, registry_dir={str(tmp_path)!r})\n"
        "q = svc.handle({'op': 'query', 'theory': 'trains', 'examples': ['eastbound(t0)', 'eastbound(t5)']})\n"
        "assert q['covered'] == [True, False], q\n"
        "job = svc.handle({'op': 'submit', 'spec': {'dataset': 'trains', 'algo': 'mdie'}})['job']\n"
        "done = svc.handle({'op': 'wait', 'job': job, 'timeout': 60})\n"
        "assert done['state'] == 'done', done\n"
        "unused = ('repro.backend.', 'multiprocessing', 'repro.fault',\n"
        "          'repro.service.client', 'repro.parallel.master', 'repro.parallel.worker',\n"
        "          'repro.parallel.p2mdie', 'repro.parallel.coverage_parallel',\n"
        "          'repro.parallel.independent')\n"
        "print(sorted(m for m in sys.modules if m.startswith(unused)))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_a_servers_first_answer_loads_no_learner(tmp_path):
    # Answering a query runs coverage over the theory's dataset: not the
    # P2-MDIE messages, the simulated cluster, the learner's search or the
    # other generators.  An in-process mdie job then loads the learner and
    # the cost model, and still no message layout or process model.
    from repro.logic import Theory, parse_clause
    from repro.service.registry import TheoryRegistry

    rule = parse_clause("eastbound(A) :- has_car(A, C), short(C), closed(C).")
    TheoryRegistry(str(tmp_path)).publish(
        "trains", Theory([rule]), provenance={"dataset": "trains", "seed": "0", "scale": "small"}
    )
    out = _python(
        "import sys, repro.cli, repro.service.server\n"
        f"svc = repro.service.server.Service(slots=1, registry_dir={str(tmp_path)!r})\n"
        "q = svc.handle({'op': 'query', 'theory': 'trains', 'examples': ['eastbound(t0)']})\n"
        "assert q['covered'] == [True], q\n"
        "learner = tuple(f'repro.ilp.{m}' for m in\n"
        "                ('bottom', 'search', 'mdie', 'refinement', 'store', 'heuristics'))\n"
        f"others = {tuple(g for g in GENERATORS if g != 'repro.datasets.trains')!r}\n"
        "unused = ('repro.parallel.messages', 'repro.cluster') + learner + others\n"
        "print(sorted(m for m in sys.modules if m.startswith(unused)))\n"
        "job = svc.handle({'op': 'submit', 'spec': {'dataset': 'trains', 'algo': 'mdie'}})['job']\n"
        "done = svc.handle({'op': 'wait', 'job': job, 'timeout': 60})\n"
        "assert done['state'] == 'done', done\n"
        "print(sorted(m for m in sys.modules if m in ('repro.parallel.messages', 'repro.cluster.process')))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_make_dataset_loads_one_generator():
    out = _python(
        "import sys, repro\n"
        "from repro.datasets import make_dataset\n"
        "make_dataset('trains')\n"
        f"print(sorted(m for m in sys.modules if m in {GENERATORS!r}))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['repro.datasets.trains']"


def test_wire_core_decodes_every_committed_layout_without_the_learner():
    # The codec core loads no learner; a message layout it meets is
    # imported from the module that registers it, so every committed
    # layout decodes and re-encodes byte for byte with the core alone.
    witness = ROOT / "tests" / "data" / "wire_layouts.json"
    out = _python(
        "import json, sys\n"
        "from repro.parallel import wire\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.ilp')))\n"
        f"doc = json.loads(open({str(witness)!r}).read())\n"
        "for e in doc['layouts']:\n"
        "    data = bytes.fromhex(e['hex'])\n"
        "    assert wire.encode_always(wire.decode(data)) == data, e['id']\n"
        "for e in doc['retired']:\n"
        "    try:\n"
        "        wire.decode(bytes.fromhex(e['hex']))\n"
        "    except wire.WireError as exc:\n"
        "        assert 'retired message type code' in str(exc), e['id']\n"
        "    else:\n"
        "        raise AssertionError(e['id'])\n"
        "print(len(doc['layouts']), len(doc['retired']))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "25 25"]


def test_p2_local_learn_loads_no_other_strategy_or_simulator():
    # The local run's ranks ship their spans home through repro.obs.span;
    # the metrics registry is the service's.
    out = _python(
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['learn', 'trains', '--p', '2', '--backend', 'local']) == 0\n"
        "unused = ('repro.parallel.coverage_parallel', 'repro.parallel.independent',\n"
        "          'repro.backend.sim', 'repro.obs.metrics')\n"
        "print(sorted(m for m in sys.modules if m.startswith(unused)))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_package_exports_resolve_on_first_use(package):
    # In a fresh interpreter: importing the package loads none of its
    # submodules; ``import *`` binds every ``__all__`` name to the object
    # its submodule defines.
    out = _python(
        "import importlib, sys\n"
        f"pkg = importlib.import_module({package!r})\n"
        f"print(sorted(m for m in sys.modules if m.startswith({package + '.'!r})))\n"
        "ns = {}\n"
        f"exec('from {package} import *', ns)\n"
        "where = {n: m for m, names in pkg._EXPORTS.items() for n in names}\n"
        "print(sorted(n for n in pkg.__all__ if n not in ns))\n"
        "print(sorted(n for n in where if ns[n] is not getattr(importlib.import_module(where[n], pkg.__name__), n)))\n"
        "print(sorted(set(where) - set(pkg.__all__)))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]", "[]", "[]"]


def test_a_submodule_does_not_shadow_the_name_its_package_re_exports():
    # ``repro.ilp.mdie`` is a module and the function ``repro.ilp`` re-exports;
    # loading the module first, as ``repro.run`` does, leaves the function.
    out = _python(
        "import repro.ilp.mdie\n"
        "from repro.ilp import mdie\n"
        "import repro.ilp\n"
        "print((mdie.__module__, repro.ilp.mdie is mdie, callable(mdie)))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "('repro.ilp.mdie', True, True)"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_package_refuses_an_unknown_name(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
        pkg.no_such_name  # noqa: B018


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
