"""The package root: its pinned public names and their defaulted parameters, lazy resolution and the README's Python code."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import filterlab

SRC = str(Path(filterlab.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ("checks", "constructions", "domains", "dsl", "filters", "game", "ordinals", "rank", "sets")

# sorted(filterlab.__all__) as it stood when every name was imported eagerly
PUBLIC = [
    "BlockInterleaveBij", "CertificateError", "CertifiedFilter",
    "CheckResult", "CofinSet", "CollapseLimit", "CollapsePair", "CopyStrategyI",
    "CopyWitness", "DIVERGENT", "DSum", "DiagNo", "DiagUnknown", "DiagYes", "DomainError",
    "EnumerationUnsupported", "ExcludeUnionI", "FilterError", "FilterFamily",
    "FilterLabError", "FinSet", "Frechet", "FreshElementII", "FubiniSum", "FullSetI",
    "IdentityBij", "IllegalMove", "InconsistentBounds", "InterleavedPair", "Intersection",
    "Limit", "NAT", "Nat", "NatPt", "NotNormalForm", "OMEGA", "ONE", "Ordinal",
    "OrdinalError", "PairPt", "ParseError", "PreconditionFailure", "Principal", "Prod",
    "Product", "ProgrammaticSet", "PullbackSet", "Pushforward", "QHWitness",
    "RandomFiniteII", "RankBounds", "RankCertificate", "RepeatedSectionwiseFamily",
    "SectionFamily", "SectionFilter", "SectionwiseFamily", "SepIn", "SepOut", "SepUnknown",
    "SumPt", "TableBij", "Transcript", "UNIT", "UNIT_PT", "Unit", "UnitPt",
    "UniversalFamily", "UniversalII", "UnsupportedPreimage", "ZERO", "ZFamily", "bounds_of",
    "bounds_text", "certificate_from_text", "certificate_text", "cofin_set",
    "collapse_limit", "collapse_pair", "column_segments_family", "copy_column_bound",
    "ct_bound", "dom_of", "dual_member", "empty_set", "enum_point", "filter_family",
    "filter_to_source", "fin_set", "flim", "frechet", "fubini_as_limit", "fubini_sum",
    "full_set", "is_diagonalizable", "is_free", "katetov", "kernel_set", "limit_of", "meet",
    "member", "member_extended", "omega_pow", "ord_add", "ord_cmp", "ord_of_int", "ord_str",
    "parse_bounds", "parse_filter", "parse_ordinal", "parse_program", "parse_seq",
    "parse_set", "play", "point_index", "point_key", "principal", "product", "pushforward",
    "random_tower_member", "rank_bounds", "rank_type_gap_example",
    "replay_certificate", "replay_transcript", "run_suite", "section_family",
    "section_filter", "selector_shadow", "separator_verdict",
    "seq_leaf", "seq_sections", "set_complement", "set_intersect", "set_member",
    "set_to_source", "set_union", "singleton_family", "suite_names", "transcript_lines",
    "two_valued_limit", "validate_transcript", "verify_universal_family", "z_cover_witness",
]


# every parameter with a default on a public callable, as "name.parameter":
# each is a setting some caller may change, so a new one shows up here
DEFAULTED = [
    "CheckResult.detail", "Frechet.domain", "ProgrammaticSet.frechet_class",
    "ProgrammaticSet.label", "UniversalFamily._least", "UniversalFamily.n_independent",
    "UniversalFamily.stability_bound", "collapse_limit.base", "collapse_limit.h",
    "frechet.domain", "omega_pow.c", "parse_seq.domain", "parse_set.domain",
    "rank_bounds.witnesses", "run_suite.seed", "run_suite.trunc", "selector_shadow.i_max",
    "selector_shadow.j_max", "two_valued_limit.bounds",
]


def fresh(code: str) -> str:
    """Run code in a new interpreter that imports filterlab from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('filterlab.')))"


def test_public_names_are_pinned():
    assert len(PUBLIC) == 142
    assert sorted(filterlab.__all__) == PUBLIC


def test_defaulted_parameters_are_pinned():
    found = []
    for name in PUBLIC:
        value = getattr(filterlab, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, Exception):
            continue
        for p in inspect.signature(value).parameters.values():
            if p.default is not p.empty:
                found.append(f"{name}.{p.name}")
    assert len(DEFAULTED) == 19
    assert sorted(found) == DEFAULTED


def test_root_names_are_their_defining_module_bindings():
    for name in PUBLIC:
        value = getattr(filterlab, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("filterlab."), name
        assert getattr(home, name) is value, name


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from filterlab import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        filterlab.no_such_name


def test_submodules_resolve_from_the_root():
    for name in MODULES:
        assert getattr(filterlab, name) is importlib.import_module(f"filterlab.{name}")
    assert filterlab.rank.rank_bounds is filterlab.rank_bounds
    assert fresh("import filterlab; print(filterlab.rank.__name__)") == "filterlab.rank\n"


def test_dir_lists_public_names_and_submodules():
    listed = set(dir(filterlab))
    assert set(PUBLIC) <= listed
    assert set(MODULES) <= listed


def test_importing_the_root_loads_no_submodule():
    assert fresh(f"import filterlab; {LOADED}") == "[]\n"


def test_importing_dsl_loads_only_what_it_needs():
    expected = ["filterlab.domains", "filterlab.dsl", "filterlab.filters", "filterlab.sets"]
    assert fresh(f"import filterlab.dsl; {LOADED}") == f"{expected}\n"


# Counts the exec calls that the import makes itself (the import system's
# own module execs aside) and the node classes it defines.
COUNT_CODE_GENERATION = """
import builtins, sys
calls = 0
real_exec = builtins.exec
def counting_exec(*args, **kwargs):
    global calls
    calls += not sys._getframe(1).f_code.co_filename.startswith("<frozen importlib")
    return real_exec(*args, **kwargs)
builtins.exec = counting_exec
import filterlab.cli
nodes = {
    c for name, m in list(sys.modules.items()) if name.startswith("filterlab.")
    for c in vars(m).values() if isinstance(c, type) and "__node_fields__" in vars(c)
}
print(calls, len(nodes), "dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def test_importing_the_cli_compiles_one_block_per_node_class_and_no_dataclasses():
    calls, nodes, dataclasses, inspect = fresh(COUNT_CODE_GENERATION).split()
    assert int(nodes) >= 60
    assert int(calls) <= int(nodes)
    assert (dataclasses, inspect) == ("False", "False")


def test_readme_library_block_runs():
    # every python block, each in a new interpreter; the first is under ## Library
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks and text.index("```python") > text.index("## Library")
    for block in blocks:
        fresh(block)
