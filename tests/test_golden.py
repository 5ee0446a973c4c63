"""Stored-report tests: full JSON bytes are pinned for a family of
signed-prime radical extensions, one prime-power radicand (the README
example), one extension field given by ``mod=`` and ``gen=``, the
largest tabled extension fields (q = 2^13, ``ffield``'s table limit,
and 3^8) and two untabled ones (q = 3^10 and 2^16) with two degree-6
radicands each, and two jobs of the first seed-1 ``wide_basis``
benchmark round (8 components over F_37 with M = 36 = 2^2 * 3^2, and 10
components over F_181 with M = 180), whose groups have many components, many primes and a modulus with several
prime powers, and three high-degree trinomials as in the
``high_degree`` benchmark slots (T^24+T+1 over F_13, T^32+g*T+g over F_9
and T^36+g*T+g over F_8) and one random degree-24 radicand over F_256,
whose factoring runs on byte-lane rows; the text report is pinned too
where a ``.txt`` file is stored."""

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
            "extension_field_q9_mod_gen", "untabled_extension_q3f10_deg6",
            "untabled_extension_q2f16_deg6", "wide_basis_q37_8comp",
            "wide_basis_q181_10comp", "high_degree_q13_deg24",
            "high_degree_q9_deg32", "high_degree_q8_deg36",
            "table_limit_q2f13_deg6", "table_limit_q3f8_deg6",
            "lane_field_q2f8_deg24"} <= set(JOBS)
    assert {"prime_power_radicand_q5_m4", "extension_field_q9_mod_gen",
            "untabled_extension_q3f10_deg6", "untabled_extension_q2f16_deg6",
            "wide_basis_q37_8comp", "wide_basis_q181_10comp",
            "high_degree_q13_deg24", "high_degree_q9_deg32",
            "high_degree_q8_deg36", "table_limit_q2f13_deg6",
            "table_limit_q3f8_deg6", "lane_field_q2f8_deg24"} \
        <= set(TEXT_JOBS) <= set(JOBS)
