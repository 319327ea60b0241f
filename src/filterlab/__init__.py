"""Symbolic filters on countable sets.

Decidable membership for filters built from principal and cofinite pieces
by products, sums, limits, meets, and relabellings; certified ordinal rank
bounds below omega^omega; a covering game with replayable transcripts; and
desk-scale rank-collapse constructions.

Public names are resolved on first use, so importing the package loads
no submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name, listed once under the module that defines it
_EXPORTS = {
    "domains": (
        "DSum",
        "DomainError",
        "EnumerationUnsupported",
        "FilterLabError",
        "NAT",
        "Nat",
        "NatPt",
        "PairPt",
        "Prod",
        "SumPt",
        "UNIT",
        "UNIT_PT",
        "Unit",
        "UnitPt",
        "enum_point",
        "point_index",
        "point_key",
    ),
    "sets": (
        "CofinSet",
        "FinSet",
        "ProgrammaticSet",
        "NotNormalForm",
        "SectionFamily",
        "cofin_set",
        "empty_set",
        "fin_set",
        "full_set",
        "section_family",
        "set_complement",
        "set_intersect",
        "set_member",
        "set_union",
    ),
    "ordinals": (
        "OMEGA",
        "ONE",
        "Ordinal",
        "OrdinalError",
        "ZERO",
        "omega_pow",
        "ord_add",
        "ord_cmp",
        "ord_of_int",
        "ord_str",
        "parse_ordinal",
    ),
    "filters": (
        "DIVERGENT",
        "DiagNo",
        "DiagUnknown",
        "DiagYes",
        "FilterError",
        "FilterFamily",
        "Frechet",
        "FubiniSum",
        "IdentityBij",
        "Intersection",
        "Limit",
        "Principal",
        "Product",
        "Pushforward",
        "RepeatedSectionwiseFamily",
        "SectionFilter",
        "SectionwiseFamily",
        "TableBij",
        "UnsupportedPreimage",
        "dom_of",
        "dual_member",
        "filter_family",
        "flim",
        "frechet",
        "fubini_as_limit",
        "fubini_sum",
        "is_diagonalizable",
        "is_free",
        "katetov",
        "kernel_set",
        "limit_of",
        "meet",
        "member",
        "principal",
        "product",
        "pushforward",
        "section_filter",
        "seq_leaf",
        "seq_sections",
    ),
    "rank": (
        "CertificateError",
        "CertifiedFilter",
        "CopyWitness",
        "InconsistentBounds",
        "QHWitness",
        "RankBounds",
        "RankCertificate",
        "bounds_of",
        "bounds_text",
        "certificate_from_text",
        "certificate_text",
        "ct_bound",
        "parse_bounds",
        "rank_bounds",
        "replay_certificate",
    ),
    "game": (
        "CopyStrategyI",
        "ExcludeUnionI",
        "FreshElementII",
        "FullSetI",
        "IllegalMove",
        "RandomFiniteII",
        "SepIn",
        "SepOut",
        "SepUnknown",
        "Transcript",
        "UniversalFamily",
        "UniversalII",
        "column_segments_family",
        "copy_column_bound",
        "play",
        "replay_transcript",
        "separator_verdict",
        "singleton_family",
        "transcript_lines",
        "validate_transcript",
        "verify_universal_family",
    ),
    "constructions": (
        "BlockInterleaveBij",
        "CollapseLimit",
        "CollapsePair",
        "InterleavedPair",
        "PreconditionFailure",
        "PullbackSet",
        "ZFamily",
        "collapse_limit",
        "collapse_pair",
        "member_extended",
        "random_tower_member",
        "rank_type_gap_example",
        "selector_shadow",
        "two_valued_limit",
        "z_cover_witness",
    ),
    "dsl": (
        "ParseError",
        "filter_to_source",
        "parse_filter",
        "parse_program",
        "parse_set",
        "parse_seq",
        "set_to_source",
    ),
    "checks": (
        "CheckResult",
        "run_suite",
        "suite_names",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
