"""repro — a reproduction of "A pipelined data-parallel algorithm for ILP"
(Fonseca, Silva, Santos Costa, Camacho; IEEE CLUSTER 2005).

The package implements, from scratch:

* :mod:`repro.logic` — a first-order logic substrate (terms, unification,
  resource-bounded SLD resolution) replacing the Prolog system the
  paper's April ILP engine ran on;
* :mod:`repro.ilp` — an MDIE ILP engine: mode declarations, bottom-clause
  saturation, top-down breadth-first rule search, and the sequential
  covering algorithm (paper Figs. 1-2);
* :mod:`repro.cluster` — a deterministic discrete-event simulated
  distributed-memory cluster (virtual clocks, mpi4py-style messaging,
  latency/bandwidth network model, communication accounting);
* :mod:`repro.parallel` — **P²-MDIE**, the paper's pipelined data-parallel
  covering algorithm (Figs. 5-7), plus the related-work baseline;
* :mod:`repro.fault` — fault tolerance & elasticity: deterministic fault
  plans (crashes, stragglers, message loss, elastic joins), epoch
  checkpoints with bit-identical resume, and self-healing masters that
  rebuild lost workers by deterministic replay;
* :mod:`repro.datasets` — seeded synthetic equivalents of the paper's
  three evaluation datasets (Table 1);
* :mod:`repro.experiments` — the §5 evaluation protocol: 5-fold CV,
  paired t-tests, and renderers for Tables 1-6 and the Fig. 3-4 trace.

Quickstart::

    from repro.datasets import make_dataset
    from repro.parallel import run_p2mdie

    ds = make_dataset("trains", seed=0)
    result = run_p2mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=4)
    print(result.theory)
"""

__version__ = "1.0.0"

__all__ = ["logic", "ilp", "cluster", "parallel", "datasets", "experiments", "util"]
