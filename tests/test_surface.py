"""The package root and the CLI: pinned public names and defaulted parameters, lazy resolution, the modules each command loads, and the README's Python code."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import filterlab
import filterlab.cli as cli

SRC = str(Path(filterlab.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ("constructions", "domains", "dsl", "filters", "game", "ordinals", "rank", "sets")

# sorted(filterlab.__all__) as it stood when every name was imported eagerly
PUBLIC = [
    "BlockInterleaveBij", "CertificateError", "CertifiedFilter", "CofinSet",
    "CollapseLimit", "CollapsePair", "CopyStrategyI",
    "CopyWitness", "DIVERGENT", "DSum", "DiagNo", "DiagUnknown", "DiagYes", "DomainError",
    "EnumerationUnsupported", "ExcludeUnionI", "FilterError", "FilterFamily",
    "FilterLabError", "FinSet", "Frechet", "FreshElementII", "FubiniSum", "FullSetI",
    "IdentityBij", "IllegalMove", "InconsistentBounds", "InterleavedPair", "Intersection",
    "Limit", "NAT", "Nat", "NatPt", "NotNormalForm", "OMEGA", "ONE", "Ordinal",
    "OrdinalError", "PairPt", "ParseError", "Principal", "Prod",
    "Product", "Pushforward", "QHWitness",
    "RandomFiniteII", "RankBounds", "RankCertificate", "RepeatedSectionwiseFamily",
    "SectionFamily", "SectionFilter", "SectionwiseFamily", "SepIn", "SepOut",
    "SumPt", "TableBij", "Transcript", "UNIT", "UNIT_PT", "Unit", "UnitPt",
    "UniversalII", "UnsupportedPreimage", "ZERO", "ZFamily", "bounds_of",
    "bounds_text", "certificate_from_text", "certificate_text", "cofin_set",
    "collapse_limit", "collapse_pair", "copy_column_bound",
    "ct_bound", "dom_of", "dual_member", "empty_set", "enum_point", "filter_family",
    "filter_to_source", "fin_set", "flim", "frechet", "fubini_as_limit", "fubini_sum",
    "full_set", "is_diagonalizable", "is_free", "katetov", "kernel_set", "limit_of", "meet",
    "member", "omega_pow", "ord_add", "ord_cmp", "ord_of_int", "ord_str",
    "parse_bounds", "parse_filter", "parse_ordinal", "parse_program", "parse_seq",
    "parse_set", "play", "point_index", "point_key", "principal", "product", "pushforward",
    "random_tower_member", "rank_bounds", "rank_type_gap_example",
    "replay_certificate", "replay_transcript", "section_family",
    "section_filter", "selector_shadow", "separator_verdict",
    "seq_leaf", "seq_sections", "set_complement", "set_intersect", "set_member",
    "set_to_source", "set_union", "transcript_lines",
    "validate_transcript", "z_cover_witness",
]


# every parameter with a default on a public callable, as "name.parameter":
# each is a setting some caller may change, so a new one shows up here
DEFAULTED = [
    "Frechet.domain", "frechet.domain", "omega_pow.c", "parse_seq.domain",
    "parse_set.domain", "rank_bounds.witnesses", "selector_shadow.i_max",
    "selector_shadow.j_max",
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
    assert len(PUBLIC) == 129
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
    assert len(DEFAULTED) == 8
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


CORE = ["domains", "dsl", "filters", "sets"]


def test_importing_the_cli_loads_only_what_member_and_flim_need():
    expected = ["filterlab.cli", *(f"filterlab.{m}" for m in CORE)]
    assert fresh(f"import filterlab.cli; {LOADED}") == f"{expected}\n"


# Runs one command as `python -m filterlab.cli` does, then prints its exit
# code and the modules it loaded.
RUN_COMMAND = """
import runpy, sys
sys.argv = ["filterlab", *{argv!r}]
try:
    runpy.run_module("filterlab.cli", run_name="__main__")
except SystemExit as e:
    code = e.code
print(code, sorted(m[len("filterlab."):] for m in sys.modules if m.startswith("filterlab.")))
"""


CONSTRUCT = ["constructions", "ordinals", "rank"]


@pytest.mark.parametrize(
    "argv, more",
    [
        (["member", "frechet", "cofin{1}"], []),
        (["flim", "seq({}, 1)", "frechet"], []),
        (["rank", "katetov(2)"], ["ordinals", "rank"]),
        (["game", "frechet", "--rounds", "2"], ["game"]),
        (["construct", "zfamily", "--depth", "2", "--trunc", "300"], CONSTRUCT),
        (["construct", "collapse-limit"], CONSTRUCT),
    ],
)
def test_each_command_loads_only_the_modules_it_calls(argv, more):
    last = fresh(RUN_COMMAND.format(argv=argv)).splitlines()[-1]
    assert last == f"0 {sorted(CORE + more)}"


def test_cli_names_resolve_to_their_defining_module_bindings():
    for module, names in cli._LAZY.items():
        home = importlib.import_module(f"filterlab.{module}")
        for name in names:
            assert getattr(cli, name) is getattr(home, name), name


def test_a_name_patched_on_the_cli_is_the_one_its_command_calls(monkeypatch, capsys):
    calls = []
    real = cli.rank_bounds

    def spy(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(cli, "rank_bounds", spy)
    assert cli.main(["rank", "katetov(2)"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("bounds: [2,2]\n")


def test_an_unknown_cli_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


# Counts the exec calls that the imports make themselves (the import system's
# own module execs aside) and the node classes they define; the CLI loads its
# command modules on demand, so they are imported after it.
COUNT_CODE_GENERATION = """
import builtins, sys
calls = 0
real_exec = builtins.exec
def counting_exec(*args, **kwargs):
    global calls
    calls += not sys._getframe(1).f_code.co_filename.startswith("<frozen importlib")
    return real_exec(*args, **kwargs)
builtins.exec = counting_exec
import filterlab.cli, filterlab.rank, filterlab.game, filterlab.constructions
nodes = {
    c for name, m in list(sys.modules.items()) if name.startswith("filterlab.")
    for c in vars(m).values() if isinstance(c, type) and "__node_fields__" in vars(c)
}
print(calls, len(nodes), "dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def test_importing_the_cli_compiles_one_block_per_node_class_and_no_dataclasses():
    calls, nodes, dataclasses, inspect = fresh(COUNT_CODE_GENERATION).split()
    assert int(nodes) >= 54
    assert int(calls) <= int(nodes)
    assert (dataclasses, inspect) == ("False", "False")


def test_readme_library_block_runs():
    # every python block, each in a new interpreter; the first is under ## Library
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks and text.index("```python") > text.index("## Library")
    for block in blocks:
        fresh(block)
