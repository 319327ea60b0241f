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
    ["check", "--list"],
    ["check", "ordinals"],
    ["check", "rank", "--seed", "1"],
    ["check"],
    ["check", "nosuch"],
]


def _run(capsys, argv):
    code = main(argv)
    return f"{argv}\n{code}\n{capsys.readouterr().out}"


@pytest.mark.parametrize(
    "fmt, want",
    [
        ("text", "8725ff0241276d56f038228eb1484ddc184353b9f8752b84131d35bcec4c786c"),
        ("structured", "8659ae14daec06c3e1b5447f3aed25362d9efb7b4a73bd870afbf536f9ae876e"),
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
        assert capsys.readouterr().out == ""


# (seed, format, digest)
CHECK_ALL = [
    ("0", "text", "d69dc15cddb81100141e3ba34191441f74cc5977885aead5ed3ed9ad55c82b59"),
    ("0", "structured", "522444930dbcde6568d2fd200a34ccf009eb0da33db4a01d2493b49c65668308"),
    ("1", "text", "6d3f9761c5c948ef470ed53553d8ab761bd3b3b8b083747c1f29b6ef31ae78f4"),
    ("1", "structured", "2241cd84eb02162d4af77e2b60b750f2a735092ef8eac1cac6ce857257500dc6"),
]


@pytest.mark.parametrize(
    "seed, fmt, want",
    [pytest.param(seed, fmt, want, id=f"seed{seed}-{fmt}") for seed, fmt, want in CHECK_ALL],
)
def test_check_all_prints_the_pinned_bytes(capsys, seed, fmt, want):
    assert main(["--format", fmt, "check", "all", "--seed", seed]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want
