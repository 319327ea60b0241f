"""Inputs and environments at the edges: huge sum spans, a closed stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import filterlab
from filterlab.cli import main
from filterlab.domains import MAX_SUM_SPAN, NAT, DomainError, DSum, Prod, sum_domain

SRC = str(Path(filterlab.__file__).resolve().parents[1])


def test_sum_domain_rejects_a_span_past_the_limit():
    last = MAX_SUM_SPAN - 1
    assert sum_domain({last: NAT}, Prod(NAT)) == DSum(
        (Prod(NAT),) * last + (NAT,), Prod(NAT)
    )
    with pytest.raises(DomainError):
        sum_domain({MAX_SUM_SPAN: NAT}, Prod(NAT))
    # a far key whose component is the tail's widens nothing
    assert sum_domain({10**9: NAT}, NAT) == Prod(NAT)


def test_far_heterogeneous_summand_is_a_usage_error(capsys):
    f = "fubini(frechet, family({1000000000: katetov(2)}, frechet))"
    assert main(["rank", f]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["member", "frechet", "cofin{1}"], 0),
        (["member", "frechet", "fin{1}"], 1),
        (["rank", "katetov(2)"], 0),
    ],
)
def test_closed_stdout_keeps_exit_code_and_quiet_stderr(argv, code, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "filterlab.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == b""
