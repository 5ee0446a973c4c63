"""Stored-report tests: full JSON bytes are pinned for a family of
signed-prime radical extensions, one prime-power radicand (the README
example) and one extension field given by ``mod=`` and ``gen=``; the
text report is pinned too where a ``.txt`` file is stored."""

import pathlib

import pytest

from genusfields.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
JOBS = sorted(job.stem for job in GOLDEN.glob("*.job"))
TEXT_JOBS = sorted(txt.stem for txt in GOLDEN.glob("*.txt"))


def report_bytes(name, tmp_path, *fmt):
    dest = tmp_path / "out"
    assert main(["compare", *fmt, "--infinite", "--output", str(dest),
                 str(GOLDEN / f"{name}.job")]) == 0
    return dest.read_bytes()


@pytest.mark.parametrize("name", JOBS)
def test_golden_report_bytes(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert report_bytes(name, tmp_path, "--format", "json") == expected


@pytest.mark.parametrize("name", TEXT_JOBS)
def test_golden_text_report_bytes(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert report_bytes(name, tmp_path) == expected


def test_golden_inventory():
    assert len(JOBS) >= 5
    assert {"signed_prime_q5_l2_T", "signed_prime_q7_l2_T",
            "signed_prime_q13_l2_T", "signed_prime_q13_l3_T",
            "extension_field_q9_mod_gen"} <= set(JOBS)
    assert {"prime_power_radicand_q5_m4",
            "extension_field_q9_mod_gen"} <= set(TEXT_JOBS) <= set(JOBS)
