"""The stdout and exit code of every CLI command, pinned by digest.

Each command runs in text and in structured form; the digest covers the
argument list, the exit code and every byte written to stdout.  Errors are
included, since a failing command must write nothing to stdout.
"""

import hashlib

import pytest

from filterlab.cli import main

COMMANDS = [
    ["member", "frechet", "cofin{0}"],
    ["member", "frechet", "fin{1,2,3}"],
    ["member", "katetov(2)", "sections({}, cofin{})"],
    ["member", "t = katetov(2); fubini(frechet, family({}, t))", "sections({}, cofin{})"],
    ["member", "limit(principal(fin{0,1}), family({0: frechet}, principal(cofin{3})))", "cofin{3}"],
    ["member", "push(enum(prod(nat)), frechet)", "sections({0: fin{}}, cofin{})"],
    ["member", "push(enum(prod(nat)), frechet)", "sections({}, cofin{})"],
    ["member", "push(table(nat,{0: 2, 2: 0}), principal(fin{0,1}))", "fin{0,2}"],
    ["member", "frechet", "fin{1,}"],
    ["member", "frechet", "sections({}, cofin{})"],
    ["rank", "katetov(3)"],
    ["rank", "fubini(frechet, family({}, katetov(2)))"],
    ["rank", "limit(frechet, family({0: katetov(2)}, katetov(1)))"],
    ["rank", "limit(principal(fin{0,1}), family({0: katetov(2)}, katetov(2)))"],
    ["rank", "meet(frechet, principal(cofin{1}))"],
    ["rank", "meet(frechet)"],
    ["flim", "seq({0: 1/2, 2: 1/2}, 1/3)", "frechet"],
    ["flim", "seq({0: 1}, 0)", "principal(fin{0,1})"],
    ["game", "--pI", "exclude-union", "--pII", "universal", "--rounds", "4", "frechet"],
    ["game", "katetov(2)", "--pI", "copy", "--pII", "random", "--rounds", "6", "--seed", "3"],
    ["game", "prod(frechet,frechet)", "--pI", "full", "--pII", "fresh", "--rounds", "5"],
    ["game", "frechet", "--rounds", "0"],
    ["game", "frechet", "--pI", "copy"],
    ["construct", "collapse-pair", "--trunc", "300"],
    ["construct", "collapse-pair", "--depth", "2", "--trunc", "300"],
    ["construct", "collapse-limit"],
    ["construct", "zfamily", "--trunc", "300"],
    ["construct", "zfamily", "--depth", "2", "--trunc", "300"],
    ["construct", "type-gap"],
    ["construct", "zfamily", "--trunc", "9"],
]


def _run(capsys, argv):
    code = main(argv)
    return f"{argv}\n{code}\n{capsys.readouterr().out}"


@pytest.mark.parametrize(
    "fmt, want",
    [
        ("text", "620729be86ec3e88a5e4a5ee3542d0d42ada152ac53803730a404b8fa84f72d0"),
        ("structured", "be2554b1f2b98c952d6468c436d0639de6865334502beb94dd78a7e40cd1e19a"),
    ],
    ids=["text", "structured"],
)
def test_every_command_prints_the_pinned_bytes(capsys, fmt, want):
    runs = [_run(capsys, ["--format", fmt, *argv]) for argv in COMMANDS]
    assert hashlib.sha256("\n".join(runs).encode()).hexdigest() == want


def test_a_failing_command_writes_nothing_to_stdout(capsys):
    for fmt in ("text", "structured"):
        assert main(["--format", fmt, "member", "frechet", "fin{1,}"]) == 2
        assert main(["--format", fmt, "game", "frechet", "--rounds", "0"]) == 2
        # an unknown command is a usage error
        assert main(["--format", fmt, "check", "ordinals"]) == 2
        assert capsys.readouterr().out == ""

