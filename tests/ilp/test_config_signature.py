"""``ILPConfig.signature()``: the versioned string checkpoints and
registry records carry, and the rule that keeps it honest."""

import dataclasses

import pytest

from repro.ilp.config import (
    SIGNATURE_FIELDS,
    SIGNATURE_VERSION,
    ILPConfig,
    _RETIRED,
    signature_mismatches,
)

#: The switches version-0 signatures (``repr(config)``) spelled out and
#: that were retired in their on position.
V0_SWITCHES = ("coverage_inheritance", "clause_fingerprints", "saturation_cache", "wire_codec")
#: Sampled coverage's parameters with their old defaults; versions 0 and 1 spell them.
SAMPLE_PARAMS = (("sample_fraction", "0.25"), ("sample_min", "16"), ("sample_delta", "0.05"))
#: Which engine kernel coverage ran on; only version 0 spelled it.
KERNEL_VALUES = ("None", "'new'", "'legacy'")
#: The learner options versions 0-2 spelled, each with the one value every
#: shipped run used and a value none did.
ONE_VALUED = (
    ("heuristic", "'coverage'", "'laplace'"),
    ("select_seed_randomly", "True", "False"),
    ("on_uncoverable", "'skip'", "'memorize'"),
    ("reorder_body", "False", "True"),
)
#: The search strategy versions 0-3 spelled: the value every shipped run
#: used, and those none did.  The beam width beside it was never read
#: under breadth-first, so any saved value resumes.
STRATEGY_USED, STRATEGY_OTHERS = "'bfs'", ("'best_first'", "'beam'")
BEAM_WIDTHS = ("5", "1", "10")
RETIRED_NAMES = (
    V0_SWITCHES
    + ("coverage_sampling",)
    + tuple(n for n, _ in SAMPLE_PARAMS)
    + ("coverage_kernel",)
    + tuple(n for n, _, _ in ONE_VALUED)
    + ("search_strategy", "beam_width")
)
V0_TO_V3 = ("", ".v1", ".v2", ".v3")

#: ``(signature version, retired field, saved value)`` this code still runs.
RETIRED_ACCEPTED = [
    *[("", name, value) for name in V0_SWITCHES for value in ("True", "None")],
    *[(v, "coverage_sampling", value) for v in ("", ".v1") for value in ("None", "False")],
    *[(v, name, value) for v in ("", ".v1") for name, value in SAMPLE_PARAMS],
    *[("", "coverage_kernel", value) for value in KERNEL_VALUES],
    *[(v, name, value) for v in ("", ".v1", ".v2") for name, value, _ in ONE_VALUED],
    *[(v, "search_strategy", STRATEGY_USED) for v in V0_TO_V3],
    *[(v, "beam_width", value) for v in V0_TO_V3 for value in BEAM_WIDTHS],
]
#: ... and those it refuses, naming the field.
RETIRED_REFUSED = [
    *[("", name, "False") for name in V0_SWITCHES],
    *[(v, "coverage_sampling", "True") for v in ("", ".v1")],
    *[(v, name, value) for v in ("", ".v1", ".v2") for name, _, value in ONE_VALUED],
    *[(v, "search_strategy", value) for v in V0_TO_V3 for value in STRATEGY_OTHERS],
]


def _case_id(case):
    version, name, value = case
    return f"v{version[2:] or '0'}-{name}={value}"


def _saved(version: str, name: str, value: str) -> str:
    """Today's default signature as version ``version`` wrote it, plus one retired field."""
    current = ILPConfig().signature()
    return f"ILPConfig{version}({current[current.index('(') + 1 : -1]}, {name}={value})"


def test_every_config_field_is_signed_or_excluded_on_purpose():
    """Adding a field to ILPConfig must force a decision: list it in
    SIGNATURE_FIELDS and bump SIGNATURE_VERSION.  Every field is signed."""
    declared = [f.name for f in dataclasses.fields(ILPConfig)]
    assert len(declared) == 10
    assert len(SIGNATURE_FIELDS) == len(set(SIGNATURE_FIELDS))
    assert sorted(SIGNATURE_FIELDS) == sorted(declared)


def test_signature_is_versioned_explicit_and_canonical():
    sig = ILPConfig().signature()
    assert sig.startswith(f"ILPConfig.v{SIGNATURE_VERSION}(max_clause_length=4, ")
    assert sig == ILPConfig().signature()
    # explicit field order, not dataclass order or dict order
    names = [item.split("=")[0] for item in sig[sig.index("(") + 1 : -1].split(", ")]
    assert tuple(names) == SIGNATURE_FIELDS
    assert ILPConfig(noise=1).signature() != sig


def test_excluded_field_does_not_change_the_signature():
    """``coverage_kernel`` is a class constant kept for callers that still
    spell it (ROADMAP 1(b)), not a field: always None, never signed."""
    assert ILPConfig.coverage_kernel is None
    assert ILPConfig(noise=1).coverage_kernel is None
    assert "coverage_kernel" not in ILPConfig().signature()


def test_mismatches_between_current_signatures():
    a, b = ILPConfig(), ILPConfig(pipeline_width=None, engine_max_depth=5)
    assert signature_mismatches(a.signature(), a.signature()) == []
    assert signature_mismatches(a.signature(), b.signature()) == [
        "pipeline_width: saved 10, current None",
        "engine_max_depth: saved 8, current 5",
    ]
    assert signature_mismatches("not a signature", a.signature()) is None


def test_retired_fields_accept_only_what_this_code_still_runs():
    """The retirement table of ``signature_mismatches``: the version-0
    switches were retired on, sampled coverage was retired off, its
    sample parameters never mattered with it off, the coverage kernels
    were held bit-identical, the four learner options and the search
    strategy were retired at the one value every shipped run used, and the
    beam width was never read under that strategy."""
    current = ILPConfig().signature()
    body = current[current.index("(") + 1 : -1]

    def refusals(version: str, **retired) -> list:
        extra = "".join(f", {k}={v}" for k, v in retired.items())
        return signature_mismatches(f"ILPConfig{version}({body}{extra})", current)

    def gone(name, value):
        return f"{name}: saved {value}, but this version has no such setting"

    params = dict(sample_fraction="0.5", sample_min="3", sample_delta="0.2")
    for version in ("", ".v1"):
        assert refusals(version, coverage_sampling="None", **params) == []
        assert refusals(version, coverage_sampling="False", **params) == []
        assert refusals(version, coverage_sampling="True", **params) == [
            gone("coverage_sampling", "True")
        ]
    assert refusals("", wire_codec="None", saturation_cache="True") == []
    assert refusals("", coverage_kernel="'legacy'") == []
    assert refusals("", saturation_cache="False") == [gone("saturation_cache", "False")]
    assert refusals(".v1", frobnicate="1") == [gone("frobnicate", "1")]
    used = {name: value for name, value, _ in ONE_VALUED}
    for version in ("", ".v1", ".v2"):
        assert refusals(version, **used) == []
        for name, _, other in ONE_VALUED:
            assert refusals(version, **{**used, name: other}) == [gone(name, other)]
    for version in V0_TO_V3:
        for width in BEAM_WIDTHS:
            assert refusals(version, search_strategy=STRATEGY_USED, beam_width=width) == []
            for other in STRATEGY_OTHERS:
                assert refusals(version, search_strategy=other, beam_width=width) == [
                    gone("search_strategy", other)
                ]


def test_retirement_table_lists_exactly_the_retired_fields():
    assert sorted(_RETIRED) == sorted(RETIRED_NAMES)


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_retired_field_is_gone_from_the_config(name):
    """A retired name must not be a field again: ``signature_mismatches``
    would compare it as a live setting instead of looking it up in the table."""
    assert name not in {f.name for f in dataclasses.fields(ILPConfig)}
    assert name not in SIGNATURE_FIELDS
    assert f"{name}=" not in ILPConfig().signature()
    with pytest.raises(TypeError, match=name):
        ILPConfig(**{name: None})


@pytest.mark.parametrize("case", RETIRED_ACCEPTED, ids=_case_id)
def test_retired_value_this_code_reproduces_is_accepted(case):
    assert signature_mismatches(_saved(*case), ILPConfig().signature()) == []


@pytest.mark.parametrize("case", RETIRED_REFUSED, ids=_case_id)
def test_retired_value_this_code_cannot_reproduce_is_refused_by_name(case):
    _, name, value = case
    assert signature_mismatches(_saved(*case), ILPConfig().signature()) == [
        f"{name}: saved {value}, but this version has no such setting"
    ]
