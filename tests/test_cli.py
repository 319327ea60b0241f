"""The command-line front end: verdicts, exit codes, formats."""

import pytest

from filterlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# member


def test_member_true_exits_zero(capsys):
    code, out, _ = run(capsys, "member", "frechet", "cofin{0}")
    assert code == 0
    assert "true" in out


def test_member_false_exits_one(capsys):
    code, out, _ = run(capsys, "member", "frechet", "fin{0,1}")
    assert code == 1
    assert "false" in out


@pytest.mark.parametrize("text, verdict, want", [("fin{3}", "false", 1), ("cofin{3}", "true", 0)])
def test_a_bare_natural_names_an_enumeration_point(capsys, text, verdict, want):
    code, out, _ = run(capsys, "member", "push(enum(prod(unit)), frechet)", text)
    assert (code, out.strip()) == (want, verdict)


def test_member_set_parses_against_filter_domain(capsys):
    code, out, _ = run(capsys, "member", "katetov(2)", "sections({}, cofin{})")
    assert code == 0


def test_member_structured_format(capsys):
    code, out, _ = run(capsys, "--format", "structured", "member", "frechet", "cofin{}")
    lines = out.splitlines()
    assert lines[0] == "format=1"
    assert "verdict=true" in lines


# ---------------------------------------------------------------------------
# rank


def test_rank_prints_bounds_and_certificate(capsys):
    code, out, _ = run(capsys, "rank", "katetov(3)")
    assert code == 0
    assert "bounds: [3,3]" in out
    assert "RKat" in out


def test_rank_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "rank", "katetov(1)")
    assert code == 0
    assert "bounds=[1,1]" in out


@pytest.mark.parametrize("head", ["secfamily", "repfamily"])
def test_a_family_member_off_its_section_is_refused_by_member_and_rank(capsys, head):
    filt = f"limit(frechet, {head}({{0: katetov(1)}}, frechet, prod(nat)))"
    for argv in (["member", filt, "sections({}, cofin{})"], ["rank", filt]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: line 1, column 1: sectionwise family members must live on their sections\n"
        )


# ---------------------------------------------------------------------------
# flim


def test_flim_prints_fraction(capsys):
    code, out, _ = run(capsys, "flim", "seq({0: 1/2}, 1/3)", "frechet")
    assert code == 0
    assert "1/3" in out


def test_flim_divergent(capsys):
    code, out, _ = run(
        capsys, "flim", "seq({0: 1}, 0)", "principal(fin{0,1})"
    )
    assert code == 1
    assert "divergent" in out


# ---------------------------------------------------------------------------
# game


def test_game_prints_transcript(capsys):
    code, out, _ = run(capsys, "game", "frechet", "--rounds", "4", "--seed", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("n=")]
    assert len(lines) == 4
    assert "|U|=" in lines[-1]


def test_game_copy_strategy(capsys):
    code, out, _ = run(
        capsys,
        "game",
        "prod(frechet,frechet)",
        "--rounds",
        "5",
        "--pI",
        "copy",
        "--pII",
        "random",
    )
    assert code == 0
    assert out.count("n=") == 5


def test_game_unknown_strategy_errors(capsys):
    code, _, err = run(capsys, "game", "frechet", "--pI", "nosuch")
    assert code == 2
    assert "error" in err


def test_game_copy_strategy_on_a_leaf_domain_names_it(capsys):
    code, out, err = run(capsys, "game", "frechet", "--pI", "copy")
    assert code == 2
    assert out == ""
    assert err == "error: copy strategy needs an indexed source domain, not nat\n"


# ---------------------------------------------------------------------------
# construct


def test_construct_zfamily(capsys):
    code, out, _ = run(capsys, "construct", "zfamily", "--trunc", "200")
    assert code == 0
    assert out.strip()


def test_construct_collapse_limit(capsys):
    code, out, _ = run(capsys, "construct", "collapse-limit", "--trunc", "500")
    assert code == 0
    assert "[1,1]" in out


def test_construct_type_gap(capsys):
    code, out, _ = run(capsys, "construct", "type-gap")
    assert code == 0
    assert "[1,1]" in out


def test_construct_trunc_flag_position_is_flexible(capsys):
    before = run(capsys, "--trunc", "300", "construct", "zfamily")
    after = run(capsys, "construct", "zfamily", "--trunc", "300")
    assert before[0] == after[0] == 0
    assert before[1] == after[1]


# ---------------------------------------------------------------------------
# check


def test_check_ordinals_suite(capsys):
    code, out, _ = run(capsys, "check", "ordinals")
    assert code == 0
    assert "PASS" in out
    assert "passed" in out.splitlines()[-1]


def test_check_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "nosuch")
    assert code == 2


def test_check_list(capsys):
    code, out, _ = run(capsys, "check", "--list")
    assert code == 0
    assert "ordinals" in out


# ---------------------------------------------------------------------------
# errors


def test_parse_error_exit_code_and_position(capsys):
    code, _, err = run(capsys, "member", "frechet", "fin{1,}")
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("src, col", [("fin{²}", 5), ("fin{1²}", 6)])
def test_digit_that_is_not_decimal_is_a_parse_error(capsys, src, col):
    code, out, err = run(capsys, "member", "frechet", src)
    assert code == 2
    assert out == ""
    assert err == f"error: line 1, column {col}: unexpected character '²'\n"


NO_COMPONENTS = "domain Nat() has no components"


@pytest.mark.parametrize(
    "src, at, message",
    [
        ("cylinder(0, frechet, nat)", "1, column 1", NO_COMPONENTS),
        ("push(table(nat, {0: 1}), frechet)", "1, column 6", "table must be a finite permutation patch"),
        ("meet(frechet, cylinder(0, frechet, nat))", "1, column 15", NO_COMPONENTS),
        ("t = katetov(1)\nmeet(frechet, t)", "2, column 1", "intersection operands must share a domain"),
    ],
)
def test_a_constructor_error_names_the_head_that_raised_it(capsys, src, at, message):
    code, out, err = run(capsys, "member", src, "cofin{}")
    assert (code, out, err) == (2, "", f"error: line {at}: {message}\n")


@pytest.mark.parametrize(
    "argv, at",
    [
        (("member", "principal(fin{})", "fin{}"), "1, column 1"),
        (("rank", "limit(principal(fin{}), family({}, frechet))"), "1, column 7"),
    ],
    ids=["member", "rank"],
)
def test_an_improper_filter_is_refused(capsys, argv, at):
    message = "a principal filter needs a nonempty core"
    assert run(capsys, *argv) == (2, "", f"error: line {at}: {message}\n")


def test_rank_of_malformed_filter(capsys):
    code, _, err = run(capsys, "rank", "meet(frechet)")
    assert code == 2


def test_deep_input_is_an_internal_error_not_a_verdict(capsys):
    deep = "meet(frechet," * 2000 + "frechet" + ")" * 2000
    code, _, err = run(capsys, "member", deep, "cofin{}")
    assert code == 3
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-5", "9", "ten"])
def test_trunc_flag_is_validated(capsys, value):
    code, out, err = run(capsys, "--trunc", value, "construct", "zfamily")
    assert code == 2
    assert out == ""
    assert "--trunc" in err
