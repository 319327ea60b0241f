"""The expression language: parsing, printing, positions, bindings."""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from filterlab.domains import (
    DSum,
    FilterLabError,
    NAT,
    NatPt,
    PairPt,
    Prod,
    SumPt,
    UNIT,
    UNIT_PT,
    component,
    is_indexed,
    points_within,
    tail_component,
)
from filterlab.dsl import (
    ParseError,
    domain_to_source,
    filter_to_source,
    parse_domain,
    parse_filter,
    parse_program,
    parse_seq,
    parse_set,
    set_to_source,
)
from filterlab.filters import (
    frechet,
    gen_random_filter,
    katetov,
    meet,
    principal,
    seq_leaf,
    seq_sections,
)
from filterlab.sets import (
    CofinSet,
    FinSet,
    SectionFamily,
    cofin_set,
    fin_set,
    gen_random_setexpr,
    validate_set,
)

DOMAINS = [NAT, Prod(NAT), Prod(Prod(UNIT)), DSum((Prod(UNIT),), NAT)]


# ---------------------------------------------------------------------------
# round trips


def test_curated_filter_round_trips():
    for f in [
        frechet(NAT),
        katetov(3),
        meet(frechet(NAT), principal(cofin_set([NatPt(1)], NAT))),
    ]:
        assert parse_filter(filter_to_source(f)) == f


@pytest.mark.parametrize("d", DOMAINS)
def test_random_filter_round_trips(d):
    for seed in range(30):
        f = gen_random_filter(d, 2, seed)
        assert parse_filter(filter_to_source(f)) == f


@pytest.mark.parametrize("d", DOMAINS)
def test_random_set_round_trips(d):
    for seed in range(30):
        a = gen_random_setexpr(d, 8, seed)
        assert parse_set(set_to_source(a), d) == a


def _unmarked(a):
    """a rebuilt from the node constructors, with no part marked valid."""
    if isinstance(a, SectionFamily):
        excs = tuple((i, _unmarked(sec)) for i, sec in a.exceptions)
        return SectionFamily(excs, _unmarked(a.tail), a.domain)
    return type(a)(a.listed, a.domain)


HAND_WRITTEN_SETS = [
    "fin{(0,1),(2,3),(0,1)}",
    "cofin{2,1,2}",
    "cofin{3,1}@prod(unit)",
    "sections({0: fin{1,(2,())}}, fin{})@prod(prod(unit))",
    "sections({4: fin{()}, 1: cofin{}}, cofin{2})",
    "sections({0: fin{(1,2,3)}}, cofin{})@dsum([prod(prod(nat))],prod(nat))",
    "a = cofin{}; sections({1: a, 0: a}, fin{})",
    "sections({3: fin{1}, 0: fin{1}}, fin{1})",
]


@pytest.mark.parametrize("d", DOMAINS)
def test_parsed_sets_are_valid_normal_forms(d):
    # the reader marks what it builds without validating it
    sources = [set_to_source(gen_random_setexpr(d, 8, seed)) for seed in range(30)]
    parsed = [parse_set(src, d) for src in sources] + [parse_set(src) for src in sources]
    parsed += [parse_program(src)[1] for src in HAND_WRITTEN_SETS]
    for a in parsed:
        raw = _unmarked(a)
        assert isinstance(raw, (FinSet, CofinSet, SectionFamily)) and not raw._valid
        validate_set(raw)
        assert raw == a


def test_set_parse_infers_domain_from_shape():
    a = parse_set("sections({0: fin{1}},cofin{2})")
    assert a.domain == Prod(NAT)


def test_domain_round_trip():
    for d in DOMAINS:
        assert parse_domain(domain_to_source(d)) == d


def test_seq_round_trip():
    from fractions import Fraction

    s = seq_leaf({NatPt(0): Fraction(1, 2)}, 0, NAT)
    assert parse_seq(set_to_source(s), NAT) == s


def test_leaf_seq_over_a_sum_is_tagged():
    s = seq_leaf({SumPt(0, PairPt(1, UNIT_PT)): 1}, 0, DSum((Prod(UNIT),), NAT))
    assert set_to_source(s) == "seq({(0,1,()): 1},0)@dsum([prod(unit)],nat)"
    assert parse_seq(set_to_source(s)) == s


@pytest.mark.parametrize("src", ["dsum([prod(unit)],nat)", "dsum([nat],prod(nat))"])
def test_seq_round_trips_without_context_over_a_sum(src):
    d = parse_domain(src)
    rng = Random(3)
    for _ in range(200):
        s = _random_seq(d, rng)
        assert parse_seq(set_to_source(s)) == s


def test_spellings_normalize():
    assert parse_filter("katetov(2)") == katetov(2)
    assert parse_set(" fin{ 2 , 1 } ", NAT) == fin_set([NatPt(1), NatPt(2)], NAT)
    assert parse_set("cofin{}", NAT) == cofin_set([], NAT)


# ---------------------------------------------------------------------------
# errors carry positions


@pytest.mark.parametrize(
    "src",
    [
        "fin{1,2,}",
        "cofin{",
        "sections({0: fin{1}}, )",
        "nosuch",
        "meet(frechet)",
        "sections({0: fin{1}, 0: fin{2}}, cofin{})",
    ],
)
def test_parse_errors_are_positioned(src):
    with pytest.raises(ParseError) as ei:
        parse_program(src)
    err = ei.value
    assert err.line >= 1 and err.col >= 1
    assert f"line {err.line}, column {err.col}" in str(err)


def test_error_points_at_the_offending_token():
    with pytest.raises(ParseError) as ei:
        parse_filter("meet(frechet, nosuch)")
    assert ei.value.col >= 15


# ---------------------------------------------------------------------------
# programs with bindings


def test_program_bindings_substitute():
    kind, val = parse_program("t = katetov(2)\nmeet(t, t)")
    assert kind == "filter"
    assert val == meet(katetov(2), katetov(2))


def test_program_detects_kind():
    assert parse_program("fin{1}")[0] == "set"
    assert parse_program("frechet")[0] == "filter"


def test_program_rejects_unbound_names():
    with pytest.raises(ParseError):
        parse_program("meet(t, frechet)")


def test_program_rebinding_is_an_error():
    with pytest.raises(ParseError):
        parse_program("t = frechet\nt = katetov(1)\nt")


# ---------------------------------------------------------------------------
# exact errors: message, line and column for malformed inputs


def _parse_as(entry, src):
    if entry == "program":
        return parse_program(src)
    if entry == "filter":
        return parse_filter(src)
    if entry == "nat-set":
        return parse_set(src, NAT)
    if entry == "prod-set":
        return parse_set(src, Prod(NAT))
    if entry == "prod-prod-set":
        return parse_set(src, Prod(Prod(NAT)))
    return parse_seq(src, NAT)


@pytest.mark.parametrize(
    "entry, src, expected",
    [
        ("program", "fin{1,2,}", ("expected a point", 1, 9)),
        ("program", "cofin{", ("expected a point", 1, 7)),
        ("program", "sections({0: fin{1}}, )", ("expected a set", 1, 23)),
        ("program", "nosuch", ("unknown name 'nosuch'", 1, 1)),
        ("program", "meet(frechet)", ("expected ',', got ')'", 1, 13)),
        (
            "program",
            "sections({0: fin{1}, 0: fin{2}}, cofin{})",
            ("repeated key in a section table", 1, 1),
        ),
        ("program", "meet(frechet, $)", ("unexpected character '$'", 1, 15)),
        ("program", "seq({0: 1/0}, 0)", ("zero denominator", 1, 12)),
        (
            "program",
            "fin{(1)}",
            ("a point tuple needs at least two coordinates or ()", 1, 5),
        ),
        ("program", "seq({0: 1, 1: 2, 0: 3}, 0)", ("repeated key in a sequence table", 1, 1)),
        (
            "program",
            "limit(frechet, family({1: frechet, 1: katetov(1)}, frechet))",
            ("repeated key in a filter table", 1, 23),
        ),
        ("program", "t = frechet\nt = katetov(1)\nt", ("'t' is already bound", 2, 1)),
        ("program", "a = fin{1}\nmeet(a, frechet)", ("'a' is bound to a set, not a filter", 2, 6)),
        ("filter", "meet(frechet, nosuch)", ("unknown filter head 'nosuch'", 1, 15)),
        ("program", "frechet frechet", ("unexpected trailing input 'frechet'", 1, 9)),
        ("nat-set", "fin{1}@prod(nat)", ("domain tag does not match this context", 1, 1)),
        ("seq", "seq({}, 0)@prod(nat)", ("domain tag does not match this context", 1, 1)),
        (
            "program",
            "a = fin{1}\nsections({0: a}, cofin{})@prod(prod(nat))",
            ("bound set's domain does not match this context", 2, 14),
        ),
        (
            "program",
            "fubini(frechet, secfamily({}, frechet))",
            ("fubini takes a plain family", 1, 1),
        ),
        (
            "program",
            "sections({0: fin{1}}, cofin{})@nat",
            ("sections need an indexed domain", 1, 1),
        ),
        ("program", "seq({0: seq({}, 0)}, 1)", ("leaf sequences need rational values", 1, 1)),
        ("program", "fin{1, (2,3)}", ("points of one set must share a shape", 1, 1)),
        ("program", "seq({(0,1): 1, 2: 1}, 0)", ("sequence points must share a shape", 1, 1)),
        (
            "program",
            "seq({(0,1): seq({}, 0)}, seq({}, 0))",
            ("nested sequence keys must be naturals", 1, 1),
        ),
        ("program", "t = frechet meet(t, t)", ("expected end of statement after binding", 1, 13)),
        ("program", "prod(frechet, frechet", ("expected ')', got 'end of input'", 1, 22)),
        ("program", "\n\nmeet(frechet,\n  frechet)", ("expected a filter", 3, 14)),
        ("program", "fin{¼}", ("unexpected character '¼'", 1, 5)),
        ("program", "fin{1};;", ("unexpected trailing input ';'", 1, 8)),
        ("prod-set", "fin{1}", ("a bare natural cannot name a point of this domain", 1, 1)),
        # the newline or end of input after a comment is reported at its own column
        ("program", "meet(frechet # note\n, frechet)", ("expected ',', got '\\n'", 1, 20)),
        ("program", "meet(frechet, # note", ("expected a filter", 1, 21)),
        # a digit that int() cannot read is not part of a natural
        ("program", "fin{²}", ("unexpected character '²'", 1, 5)),
        ("program", "fin{1²}", ("unexpected character '²'", 1, 6)),
        # a tag governs its whole literal, so it is checked before any part is read
        (
            "prod-set",
            "sections({0: fin{(1,2)}}, fin{})@prod(prod(nat))",
            ("domain tag does not match this context", 1, 1),
        ),
        (
            "prod-prod-set",
            "sections({0: fin{1}}, fin{})@prod(nat)",
            ("domain tag does not match this context", 1, 1),
        ),
        ("nat-set", "fin{(1,2)}@prod(nat)", ("domain tag does not match this context", 1, 1)),
        # a literal's parts are read as they come, so a fault in one is found
        # before a later syntax error
        ("prod-set", "sections({0: fin{()}}, fin{1,})", ("expected a bare natural", 1, 14)),
        # a sum domain too wide to build is reported at the literal's head
        (
            "program",
            "sections({70000: fin{()}}, fin{})",
            ("sum component 70000 lies past index 65535", 1, 1),
        ),
        (
            "program",
            "seq({0: seq({}, 0), 70000: seq({(): 1}, 0)}, seq({}, 0))",
            ("sum component 70000 lies past index 65535", 1, 1),
        ),
        # and so is a table that leaves a component of its dsum to the tail
        (
            "program",
            "sections({}, fin{})@dsum([prod(nat)],nat)",
            ("index 0 has component Prod(inner=Nat()) but would fall to the tail", 1, 1),
        ),
    ],
)
def test_parse_errors_are_exact(entry, src, expected):
    with pytest.raises(ParseError) as ei:
        _parse_as(entry, src)
    assert (ei.value.message, ei.value.line, ei.value.col) == expected


def test_a_tag_governs_its_literal_in_every_context():
    src = "sections({0: fin{1,(2,())}}, fin{})@prod(prod(unit))"
    kind, a = parse_program(src)
    assert kind == "set" and a.domain == Prod(Prod(UNIT))
    assert parse_program(f"principal({src})") == ("filter", principal(a))
    # the tag is found ahead wherever the literal stands in the text
    first = "principal(sections({}, cofin{}@prod(unit)))"
    assert parse_program(f"meet({first}, principal({src}))")[1].right == principal(a)
    assert parse_set(src) == parse_set(src, Prod(Prod(UNIT))) == a


def test_names_keep_their_characters():
    assert parse_program("a² = frechet\né = a²\né") == ("filter", frechet(NAT))
    assert parse_set("fin{٣}", NAT) == fin_set([NatPt(3)], NAT)


# ---------------------------------------------------------------------------
# the language itself: what parses, how it prints, how it fails

LANGUAGE_EXAMPLES = [
    "frechet",
    "fin{1,2,3}",
    "cofin{0}",
    "sections({0: fin{1}}, cofin{2})",
    "sections({}, cofin{})",
    "seq({0: 1/2, 2: 1/2}, 1/3)",
    "seq({0: -1/2, 3: 4}, -2)",
    "fubini(frechet, family({}, katetov(2)))",
    "meet(frechet, principal(cofin{1}))",
    "prod(frechet, katetov(1))",
    "cylinder(1, frechet)",
    "cylinder(2, frechet, dsum([nat], prod(nat)))",
    "frechet(prod(nat))",
    "limit(frechet, family({0: principal(fin{1})}, frechet))",
    "limit(frechet, secfamily({1: frechet}, katetov(1)))",
    "limit(frechet, secfamily({}, frechet, prod(nat)))",
    "limit(frechet, repfamily(frechet))",
    "limit(frechet, repfamily({0: katetov(1)}, frechet, prod(nat)))",
    "push(id(nat), frechet)",
    "push(enum(prod(nat)), frechet)",
    "push(table(nat, {0: 1, 1: 0}), frechet)",
    "principal(fin{(0,1),(2,3)})",
    "principal(fin{()}@unit)",
    "fin{}@prod(nat)",
    "sections({0: fin{()}}, cofin{}@prod(unit))",
    "seq({}, seq({0: 1}, 0))@prod(nat)",
    "t = katetov(2)\nmeet(t, t)",
    "a = fin{1}; b = sections({0: a}, cofin{}); principal(b)",
    "# a comment\nfrechet # another\n",
    "\n\n  meet(frechet,frechet) ;\n",
]


def _outcome(src):
    """What parse_program makes of src: the printed value, or the error."""
    try:
        kind, value = parse_program(src)
    except ParseError as e:
        return f"ParseError {e.message!r} {e.line} {e.col}"
    except FilterLabError as e:
        return f"{type(e).__name__} {e}"
    printer = filter_to_source if kind == "filter" else set_to_source
    return f"{kind} {printer(value)}"


def _random_seq(d, rng, depth=2):
    values = [Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(2)]
    if depth and is_indexed(d) and rng.random() < 0.6:
        entries = {
            i: _random_seq(component(d, i), rng, depth - 1)
            for i in rng.sample(range(4), rng.randrange(3))
        }
        return seq_sections(entries, _random_seq(tail_component(d), rng, depth - 1), d)
    pts = points_within(d, 3)
    picked = rng.sample(pts, min(len(pts), rng.randrange(4)))
    return seq_leaf({p: rng.choice(values) for p in picked}, rng.choice(values), d)


def _mutants(src):
    """Malformed neighbours of src: cut short, or with one character or one
    punctuation mark gone."""
    out = []
    for cut in sorted({len(src) * k // 5 for k in range(1, 5)}):
        mark = next((i for i in range(cut, len(src)) if src[i] in "(){}[],:@/"), cut)
        out += [src[:cut], src[:cut] + src[cut + 1 :], src[:mark] + src[mark + 1 :]]
    return out


def _pinned_cases():
    """The printed filters, sets and sequences the language pin parses:
    (value, source, parser) triples, 1,200 in all."""
    for d in DOMAINS:
        rng = Random(7)
        for seed in range(100):
            f = gen_random_filter(d, 2, seed)
            a = gen_random_setexpr(d, 8, seed)
            s = _random_seq(d, rng)
            yield f, filter_to_source(f), parse_filter
            yield a, set_to_source(a), lambda src, d=d: parse_set(src, d)
            yield s, set_to_source(s), lambda src, d=d: parse_seq(src, d)


def test_language_is_pinned():
    lines = [_outcome(src) for src in LANGUAGE_EXAMPLES]
    sources = []
    for value, src, parse in _pinned_cases():
        assert parse(src) == value
        sources.append(src)
        lines.append(src)
        lines.append(_outcome(src))
    for src in sources[::6]:
        lines += [_outcome(m) for m in _mutants(src)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(sources) == 1200
    assert digest == "2bb6122a1825cb6e6011ead79b913eb971800cb6d75266c8871b716cdb1fb6f5"
