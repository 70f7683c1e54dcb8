"""Synthetic relational dataset generators.

The paper evaluates on carcinogenesis, mesh and pyrimidines (Table 1);
those datasets are not redistributable, so this package generates seeded
synthetic equivalents with the same cardinalities, relational structure
and planted target theories (see DESIGN.md §1).  Michalski's trains is
included as the quickstart/tests problem (it is also the dataset used by
the related work of Matsui et al., §6).

Each name below is imported from its submodule when it is first read,
and :data:`DATASETS` names every bundled generator before its module is
loaded, so ``make_dataset("trains")`` loads the trains generator alone
(see :mod:`repro.util.lazy` and :mod:`repro.datasets.base`).
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    ".base": ("DATASETS", "Dataset", "SCALES", "make_dataset", "register_dataset"),
    ".carcinogenesis": ("make_carcinogenesis",),
    ".krki": ("make_krki",),
    ".mesh": ("make_mesh",),
    ".pyrimidines": ("make_pyrimidines",),
    ".trains": ("make_trains",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
