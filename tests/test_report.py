import dataclasses
import errno
import io
import json
import os
import random

import pytest

import genusfields.kummer as kummer_mod
import genusfields.report as report_mod
from genusfields import (InternalCheckError, InvalidDescriptorError, JobConfig,
                         KummerComponent, ParseError, Poly, RadicandGroup,
                         parse_input, render_job, render_poly, run)
from genusfields.cli import main
from genusfields.selftest import random_descriptor


P = Poly.from_ints


def test_parse_basic_job(F5):
    config = parse_input("field p=5 f=1\n"
                         "component gamma=2 D=T^3+2*T^2+T m=4\n")
    assert config.field == F5
    (c,) = config.components
    assert c.gamma == F5.const(2)
    assert c.D == P(F5, [0, 1, 2, 1])
    assert c.m == 4


def test_parse_extension_field_job(F9):
    config = parse_input("field p=3 f=2\ncomponent gamma=g^3 D=T^2+1 m=8\n")
    assert config.field == F9
    (c,) = config.components
    assert c.gamma == F9.g ** 3
    assert c.D == P(F9, [1, 0, 1])


def test_parse_component_before_field():
    with pytest.raises(ParseError) as err:
        parse_input("component gamma=1 D=T m=2\nfield p=5 f=1\n")
    assert err.value.line == 1


def test_parse_whitespace_and_comments(F5):
    config = parse_input("# header comment\n"
                         "field   p = 5   f = 1\n"
                         "\n"
                         "component gamma=2 D = T^2 + 1 m=2  # trailing\n")
    assert config.field == F5
    assert config.components[0].D == P(F5, [1, 0, 1])


# the grammar's integers are ASCII digits only, unsigned, without
# underscores: (line, col, job text) of inputs that break the rule
BAD_INTS = (
    (1, 7, "field p=1_3 f=1\ncomponent gamma=1 D=T m=1\n"),
    (1, 12, "field p=13 f=\uff11\ncomponent gamma=1 D=T m=1\n"),
    (1, 7, "field p=+13 f=1\ncomponent gamma=1 D=T m=1\n"),
    (2, 11, "field p=13 f=1\ncomponent gamma=\u0663 D=T m=3\n"),
    (2, 11, "field p=13 f=1\ncomponent gamma=1_2 D=T m=3\n"),
    (2, 19, "field p=13 f=1\ncomponent gamma=3 D=T^\u0661 m=3\n"),
    (2, 19, "field p=13 f=1\ncomponent gamma=3 D=T^+2 m=3\n"),
    (2, 23, "field p=13 f=1\ncomponent gamma=3 D=T m=\u0663\n"),
    (2, 11, "field p=3 f=2\ncomponent gamma=g^\u0661 D=T m=2\n"),
    (1, 15, "field p=3 f=2 mod=x^\uff12+x+2\ncomponent gamma=1 D=T m=2\n"),
    (1, 15, "field p=3 f=2 mod=x^2+1_0*x+2\ncomponent gamma=1 D=T m=2\n"),
    (1, 15, "field p=3 f=2 mod=x^2+x+\u0662\ncomponent gamma=1 D=T m=2\n"),
)


# p is refused before mod= is read against it
PRIME_BEFORE_MOD = ((7, "field p=0 f=1 mod=x"), (7, "field p=1 f=1 mod=x"))

# build_field refusals, each at the column of the key=value it refuses
BAD_FIELDS = (
    (15, "field p=3 f=2 mod=x^2+2"),             # not irreducible
    (15, "field p=3 f=2 mod=2*x^2+1"),           # not monic
    (15, "field p=3 f=2 mod=x^3+x+2"),           # wrong degree
    (7, "field p=9 f=1"),                        # not prime
    (11, "field p=5 f=0"),                       # f not positive
    (7, "field p=10000000000000061 f=1"),        # p over the bound
    (11, "field p=2 f=1000000000000"),           # f over the bound
    (15, "field p=65537 f=2"),                   # q over the bound
) + PRIME_BEFORE_MOD


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_input("field p=5 f=1\ncomponent gamma=2 D=T m=2 extra=1\n")
    assert err.value.line == 2 and err.value.col > 1
    with pytest.raises(ParseError):
        parse_input("field p=5 f=1\ncomponent gamma=7 D=T m=2\n")   # 7 not in F_5
    with pytest.raises(ParseError):
        parse_input("field p=5 f=1\ncomponent gamma=2 D=2*T m=2\n")  # non-monic
    with pytest.raises(ParseError):
        parse_input("field p=5 f=1\ncomponent gamma=2 D=T m=0\n")
    with pytest.raises(ParseError):
        parse_input("field p=5 f=1\nfield p=5 f=1\n")
    with pytest.raises(ParseError):
        parse_input("field p=4 f=1\ncomponent gamma=1 D=T m=1\n")   # 4 not prime
    for p, f in ((10000000000000061, 1), (2, 10 ** 12)):          # q too large
        with pytest.raises(ParseError):
            parse_input(f"field p={p} f={f}\ncomponent gamma=1 D=T m=1\n")
    with pytest.raises(ParseError):
        parse_input("field p=5 f=1\n")                              # no components
    with pytest.raises(ParseError):
        parse_input("orbit gamma=1\n")
    with pytest.raises(ParseError) as err:
        parse_input("field p=5 f=x\ncomponent gamma=1 D=T m=1\n")
    assert (err.value.line, err.value.col) == (1, 11)           # at the f value
    for line, col, text in BAD_INTS:
        with pytest.raises(ParseError) as err:
            parse_input(text)
        assert (err.value.line, err.value.col) == (line, col), text
    for col, field_line in BAD_FIELDS:
        with pytest.raises(ParseError) as err:
            parse_input(field_line + "\ncomponent gamma=1 D=T m=1\n")
        assert (err.value.line, err.value.col) == (1, col), field_line
    for _, field_line in PRIME_BEFORE_MOD:
        with pytest.raises(ParseError, match="p must be prime"):
            parse_input(field_line + "\ncomponent gamma=1 D=T m=1\n")


# every grammar refusal: (line, col, message, job text); a refusal of the
# job as a whole carries no position, (0, 0)
COMPONENT = "component gamma=1 D=T m=2\n"
BAD_GRAMMAR = (
    (2, 19, "bad power of T: 'Tx'", "field p=5 f=1\ncomponent gamma=3 D=Tx m=2\n"),
    (2, 19, "exponent 4097 too large",
     "field p=5 f=1\ncomponent gamma=3 D=T^4097 m=2\n"),
    (2, 19, "empty monomial in 'T++1'",
     "field p=5 f=1\ncomponent gamma=3 D=T++1 m=2\n"),
    (2, 19, "empty polynomial", "field p=5 f=1\ncomponent gamma=3 D= m=2\n"),
    (1, 15, "modulus coefficient 5 not in 0..2",
     "field p=3 f=2 mod=x^2+5\n" + COMPONENT),
    (2, 10, "expected key=value assignments", "field p=5 f=1\ncomponent\n"),
    (1, 6, "unexpected text 'xyz'", "field xyz p=5 f=1\n" + COMPONENT),
    (1, 11, "duplicate key 'p'", "field p=5 p=5 f=1\n" + COMPONENT),
    (2, 3, "expected a field or component line", "field p=5 f=1\n  =5\n"),
    (2, 27, "unknown key 'extra' on component line",
     "field p=5 f=1\ncomponent gamma=2 D=T m=2 extra=1\n"),
    (2, 1, "component line is missing 'm'",
     "field p=5 f=1\ncomponent gamma=2 D=T\n"),
    (1, 1, "field line is missing 'p'", "field f=1\n" + COMPONENT),
    (1, 1, "unknown directive 'orbit'", "orbit gamma=1\n"),
    (1, 1, "component line before any field line", COMPONENT + "field p=5 f=1\n"),
    (2, 1, "duplicate field line", "field p=5 f=1\nfield p=5 f=1\n" + COMPONENT),
    (2, 19, "integer of 5000 digits exceeds the 4300-digit limit",
     f"field p=5 f=1\ncomponent gamma=3 D=T^{'9' * 5000} m=2\n"),
    (2, 19, "integer of 5000 digits exceeds the 4300-digit limit",
     f"field p=5 f=1\ncomponent gamma=3 D=T+{'9' * 5000} m=2\n"),
    (2, 11, "integer of 5000 digits exceeds the 4300-digit limit",
     f"field p=5 f=1\ncomponent gamma=g^{'9' * 5000} D=T m=2\n"),
    (0, 0, "expected at least one component line", "field p=5 f=1\n"),
    (0, 0, "missing field line", "# only\n# comments\n"),
)


@pytest.mark.parametrize("line, col, message, text", BAD_GRAMMAR,
                         ids=[row[2] if len(row[3]) < 100 else
                              f"{row[2]} in {row[3].splitlines()[1][:22]}"
                              for row in BAD_GRAMMAR])
def test_grammar_refusal_position_and_message(line, col, message, text):
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == (f"line {line}, col {col}: {message}" if line
                              else message)


# lines end at "\n", "\r\n" or "\r" only; the other characters that
# str.splitlines() breaks at are whitespace inside a line
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_parse_line_ends(F5):
    want = (KummerComponent(F5.const(2), P(F5, [0, 1]), 4),)
    for end in ("\n", "\r\n", "\r"):
        config = parse_input(f"field p=5 f=1{end}{end}component gamma=2 D=T m=4{end}")
        assert config.field == F5 and config.components == want
        with pytest.raises(ParseError) as err:
            parse_input(f"field p=5 f=1{end}{end}component gamma=2 D=T m=x{end}")
        assert (err.value.line, err.value.col) == (3, 23)
    for ws in OTHER_BREAKS:
        config = parse_input(f"field p=5 f=1{ws}\ncomponent gamma=2 D=T{ws} m=4{ws}\n")
        assert config.field == F5 and config.components == want, repr(ws)
        with pytest.raises(ParseError) as err:
            parse_input(f"field p=5 f=1\ncomponent gamma=2 D=T{ws} m=x\n")
        assert (err.value.line, err.value.col) == (2, 24), repr(ws)


def test_zero_terms_in_mod_and_D(F9, tmp_path, capsys):
    job = "field p=3 f=2 mod={}\ncomponent gamma=g^3 D={} m=4\n"
    plain = parse_input(job.format("x^2+1", "T^2+g*T"))
    assert plain.field == F9
    reports = set()
    for mod, D in (("x^2+1", "T^2+g*T"),
                   ("x^2+0*x^3+1", "T^2+g*T+0*T^3"),
                   ("0*x^4+x^2+1+0", "0*T^5+T^2+g*T+0"),
                   ("x^2+x^3+2*x^3+1", "T^2+g*T+T^3+2*T^3")):   # p | 1 + 2
        text = job.format(mod, D)
        config = parse_input(text)
        assert (config.field, config.components) == (plain.field, plain.components)
        path = tmp_path / "job.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["compare", "--infinite", str(path)]) == 0, text
        reports.add(capsys.readouterr().out)
    assert len(reports) == 1


def test_strict_mode_rejects_bad_m_at_parse():
    text = "field p=5 f=1\ncomponent gamma=2 D=T m=3\n"
    with pytest.raises(ParseError):
        parse_input(text, strict=True)
    config = parse_input(text)   # lenient parse succeeds ...
    with pytest.raises(InvalidDescriptorError):
        run(config)              # ... and the descriptor is rejected later


def test_field_overrides_parse_and_render():
    config = parse_input("field p=3 f=2 mod=x^2+x+2 gen=g^1\n"
                         "component gamma=g D=T m=2\n")
    assert config.field.modulus == (2, 1, 1)
    rendered = render_job(config)
    assert parse_input(rendered).field == config.field
    with pytest.raises(ParseError):
        parse_input("field p=3 f=2 mod=x^2+1 gen=g^2\ncomponent gamma=1 D=T m=2\n")
    with pytest.raises(ParseError):
        parse_input("field p=5 f=1 gen=0\ncomponent gamma=1 D=T m=2\n")


def test_gen_builds_one_table(monkeypatch):
    from genusfields.ffield import FqField
    builds = []
    real_tables = FqField._tables

    def counting_tables(self):
        unbuilt = self._log is None
        out = real_tables(self)
        if unbuilt and self._log is not None:
            builds.append(self)
        return out

    monkeypatch.setattr(FqField, "_tables", counting_tables)
    config = parse_input("field p=3 f=8 gen=g^7\ncomponent gamma=g^7 D=T m=2\n")
    run(config)
    assert len(builds) == 1 and builds[0] is config.field


def test_gen_searches_for_the_modulus_once(monkeypatch):
    """The field that gen= is read on finds the modulus; the field with
    the given generator reuses it, so a job over 3^10 searches once."""
    from genusfields import ffield
    searches, find = [], ffield._find_modulus

    def counted(p, f):
        searches.append((p, f))
        return find(p, f)
    monkeypatch.setattr(ffield, "_find_modulus", counted)
    config = parse_input("field p=3 f=10 gen=g^7\ncomponent gamma=g^7 D=T m=2\n")
    run(config).to_json()
    assert searches.count((3, 10)) == 1
    assert config.field.g == config.field.elem(
        (ffield.build_field(3, 10).g ** 7).coeffs)


def test_render_job_round_trip_random():
    rng = random.Random(41)
    for _ in range(40):
        desc = random_descriptor(rng)
        config = JobConfig(field=desc.field, components=desc.components)
        again = parse_input(render_job(config))
        assert again.field == config.field
        assert again.components == config.components


def test_render_poly_round_trip(F9):
    from genusfields.report import parse_poly
    rng = random.Random(42)
    for _ in range(40):
        poly = Poly(F9, [F9.from_index(rng.randrange(9))
                         for _ in range(rng.randint(1, 7))])
        if poly.is_zero():
            continue
        assert parse_poly(F9, render_poly(poly)) == poly


def _config(fld, comps, **kw):
    return JobConfig(field=fld, components=tuple(comps), **kw)


def test_run_signed_prime_report(F5):
    config = _config(F5, [KummerComponent(F5.const(4), P(F5, [0, 1]), 2)],
                     include_comparison=True)
    payload = run(config).payload
    assert payload["rarzvi"]["degree"] == 2
    assert payload["clement"]["degree"] == 4
    assert payload["comparison"]["rarzvi_eq_clement"] is False
    assert payload["comparison"]["index_rarzvi_in_clement"] == 2
    assert payload["warnings"] == []


def test_run_quartic_report(F5):
    config = _config(F5, [KummerComponent(F5.const(2), P(F5, [0, 1, 2, 1]), 4)])
    payload = run(config).payload
    assert payload["clement"]["degree"] == 32
    assert payload["clement"]["galois"] == [2, 4, 4]
    assert payload["comparison"] is None


def test_run_degenerate_lenient_and_strict(F5):
    comps = [KummerComponent(F5.const(4), Poly.one(F5), 2)]
    payload = run(_config(F5, comps)).payload
    assert payload["extension"]["degenerate"] is True
    assert payload["extension"]["dropped_components"] == [1]
    assert any("K = k" in w for w in payload["warnings"])
    with pytest.raises(InvalidDescriptorError):
        run(_config(F5, comps, strict=True))


def test_run_closed_form_warning(F7):
    payload = run(_config(F7, [KummerComponent(F7.const(3), P(F7, [0, 1]), 2)])).payload
    assert any("closed form" in w for w in payload["warnings"])


def test_json_schema_and_key_order(F5):
    config = _config(F5, [KummerComponent(F5.one, P(F5, [0, 1]), 2)],
                     include_comparison=True, include_infinite=True)
    payload = run(config).payload
    assert list(payload) == ["field", "extension", "ramification", "clement",
                             "rarzvi", "comparison", "warnings"]
    assert payload["ramification"]["infinite"] == 2

    def no_floats(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                no_floats(v)
        elif isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(payload)


def test_run_depends_only_on_config(F5):
    config = _config(F5, [KummerComponent(F5.const(2), P(F5, [0, 1, 2, 1]), 4)],
                     seed=9, include_comparison=True, include_infinite=True)
    assert run(config).to_json() == run(config).to_json()


def test_run_factors_each_radicand_once(F5, monkeypatch):
    import genusfields.kummer as kummer_mod
    calls = []
    real_factor = kummer_mod.factor

    def counting_factor(f, seed=0):
        calls.append(f)
        return real_factor(f, seed)

    monkeypatch.setattr(kummer_mod, "factor", counting_factor)
    D, E = P(F5, [0, 1, 2, 1]), P(F5, [1, 1])
    comps = [KummerComponent(F5.const(2), D, 4),
             KummerComponent(F5.one, D, 2),              # shares D
             KummerComponent(F5.const(4), Poly.one(F5), 2),
             KummerComponent(F5.one, E, 4)]
    run(_config(F5, comps, include_comparison=True, include_infinite=True))
    assert calls == [D, E]


def test_run_computes_ramification_once(F5, monkeypatch):
    import genusfields.genus as genus_mod
    import genusfields.kummer as kummer_mod
    import genusfields.report as report_mod
    calls = []
    real = kummer_mod.ramification_indices

    def counting(ext):
        calls.append(ext)
        return real(ext)

    # rebind the name wherever the package binds it
    for mod in (kummer_mod, genus_mod, report_mod):
        if hasattr(mod, "ramification_indices"):
            monkeypatch.setattr(mod, "ramification_indices", counting)
    comps = [KummerComponent(F5.const(2), P(F5, [0, 1, 2, 1]), 4),
             KummerComponent(F5.one, P(F5, [1, 1]), 2)]
    run(_config(F5, comps, include_comparison=True, include_infinite=True))
    assert len(calls) == 1


def test_audit_failure_raises(F5, monkeypatch):
    import genusfields.report as report_mod
    monkeypatch.setattr(report_mod, "verify_degree_formula",
                        lambda gf, ext: False)
    with pytest.raises(InternalCheckError):
        run(_config(F5, [KummerComponent(F5.one, P(F5, [0, 1]), 2)]))


def _compare_with(**changes):
    def patch(monkeypatch):
        real = report_mod.compare
        monkeypatch.setattr(report_mod, "compare", lambda *args: dataclasses.replace(
            real(*args), **changes))
    return patch


def _extra_factor(monkeypatch):
    real = RadicandGroup.invariant_factors
    monkeypatch.setattr(RadicandGroup, "invariant_factors",
                        lambda self: real(self) + (2,))


# each audit invariant, and a patch of what its check reads that breaks it
AUDIT_FAILURES = [
    ("degree formula violated", lambda mp: mp.setattr(
        report_mod, "verify_degree_formula", lambda gf, ext: False)),
    ("containment chain violated: K not in rarzvi",
     _compare_with(k_in_rarzvi=False)),
    ("containment chain violated: rarzvi not in clement",
     _compare_with(rarzvi_in_clement=False)),
    ("comparison index is not the degree ratio",
     _compare_with(index_rarzvi_in_clement=0)),
    ("constant field of the genus field is not F_(q^n)", lambda mp: mp.setattr(
        RadicandGroup, "constant_subgroup_order", lambda self: 0)),
    ("ramification formulas disagree", lambda mp: mp.setattr(
        report_mod, "ramification_lcm_oracle", lambda ext: ())),
    ("galois structure inconsistent with degree", _extra_factor),
]


@pytest.mark.parametrize("invariant, patch", AUDIT_FAILURES,
                         ids=[name for name, _ in AUDIT_FAILURES])
def test_audit_failure_names_invariant_and_job(tmp_path, capsys, monkeypatch,
                                               invariant, patch):
    patch(monkeypatch)
    with pytest.raises(InternalCheckError) as info:
        run(parse_input(JOB))
    assert str(info.value) == (
        f"{invariant} in job: field p=5 f=1; component gamma=4 D=T m=2")
    job = tmp_path / "job.txt"
    job.write_text(JOB, encoding="utf-8")
    assert main(["compute", str(job)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal invariant violation: {info.value}\n"


# ---------------------------------------------------------------------------
# command line

JOB = "field p=5 f=1\ncomponent gamma=4 D=T m=2\n"


# factorizations that lose a prime or overstate one, and the radicands
# each one changes
FACTOR_MUTANTS = {
    "last_prime_dropped": (lambda fac: fac[:-1] if len(fac) > 1 else fac,
                           lambda fac: len(fac) > 1),
    "multiplicities_raised": (lambda fac: [(Q, a + 1) for Q, a in fac],
                              lambda fac: len(fac) > 0),
}


@pytest.mark.parametrize("mutant", FACTOR_MUTANTS)
def test_audit_catches_a_wrong_factorization(tmp_path, capsys, monkeypatch,
                                             mutant):
    """Every job with a radicand that the mutant changes fails the product
    check, named with its job, and the CLI exits 4; jobs it leaves alone
    pass."""
    change, changes = FACTOR_MUTANTS[mutant]
    real = kummer_mod.factor
    monkeypatch.setattr(kummer_mod, "factor",
                        lambda f, seed=0: change(real(f, seed)))
    text = "field p=5 f=1\ncomponent gamma=4 D=T^2+T m=2\n"
    invariant = "radicand factorization does not multiply back"
    with pytest.raises(InternalCheckError) as info:
        run(parse_input(text))
    assert str(info.value) == (
        f"{invariant} in job: field p=5 f=1; component gamma=4 D=T^2+T m=2")
    job = tmp_path / "job.txt"
    job.write_text(text, encoding="utf-8")
    assert main(["compute", str(job)]) == 4
    assert capsys.readouterr().err == f"internal invariant violation: {info.value}\n"
    rng = random.Random(26)
    caught = 0
    for _ in range(60):
        desc = random_descriptor(rng)
        config = _config(desc.field, desc.components)
        if any(changes(real(c.D)) for c in desc.components if c.D.degree() > 0):
            with pytest.raises(InternalCheckError, match=invariant):
                run(config)
            caught += 1
        else:
            run(config)
    assert caught >= 20


def test_cli_compute_text(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(JOB, encoding="utf-8")
    assert main(["compute", str(job)]) == 0
    out = capsys.readouterr().out
    assert "clement" in out and "degree 4" in out


def test_cli_compare_json(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(JOB, encoding="utf-8")
    assert main(["compare", "--format", "json", str(job)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["comparison"]["index_rarzvi_in_clement"] == 2


def test_cli_output_file(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(JOB, encoding="utf-8")
    dest = tmp_path / "report.json"
    assert main(["compute", "--format", "json", "--output", str(dest),
                 str(job)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text(encoding="utf-8"))["clement"]["degree"] == 4


def test_cli_byte_determinism(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text("field p=5 f=1\ncomponent gamma=2 D=T^3+2*T^2+T m=4\n",
                   encoding="utf-8")
    outs = []
    for i in range(2):
        dest = tmp_path / f"out{i}.json"
        assert main(["compute", "--format", "json", "--seed", "5",
                     "--output", str(dest), str(job)]) == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("field p=5 f=1\ncomponent gamma=2 D=2*T m=2\n",
                   encoding="utf-8")
    assert main(["compute", str(bad)]) == 2
    invalid = tmp_path / "invalid.txt"
    invalid.write_text("field p=5 f=1\ncomponent gamma=2 D=T m=3\n",
                       encoding="utf-8")
    assert main(["compute", str(invalid)]) == 3
    assert main(["compute", str(tmp_path / "missing.txt")]) == 5
    for m in ("\u00b2", "9" * 5000):   # isdigit() holds, int() refuses
        odd = tmp_path / "odd_m.txt"
        odd.write_text(f"field p=5 f=1\ncomponent gamma=2 D=T m={m}\n",
                       encoding="utf-8")
        assert main(["compute", str(odd)]) == 2
    for _, _, text in BAD_INTS:
        odd.write_text(text, encoding="utf-8")
        assert main(["compute", str(odd)]) == 2
    capsys.readouterr()
    for col, field_line in PRIME_BEFORE_MOD:
        odd.write_text(field_line + "\ncomponent gamma=1 D=T m=1\n",
                       encoding="utf-8")
        assert main(["compute", str(odd)]) == 2
        assert f"line 1, col {col}: p must be prime" in capsys.readouterr().err
    import genusfields.report as report_mod
    monkeypatch.setattr(report_mod, "verify_degree_formula",
                        lambda gf, ext: False)
    job = tmp_path / "job.txt"
    job.write_text(JOB, encoding="utf-8")
    assert main(["compute", str(job)]) == 4
    capsys.readouterr()
    # a prime that fails its certificate inside factor
    monkeypatch.undo()
    import genusfields.kernel as kernel_mod
    monkeypatch.setattr(kernel_mod, "rabin_holds", lambda *args: False)
    assert main(["compute", str(job)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal invariant violation: prime certificate failed for factor")
    assert captured.err.count("\n") == 1


def test_cli_selftest(capsys, monkeypatch):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.endswith("selftest passed\n")
    import genusfields.selftest as selftest_mod
    monkeypatch.setattr(selftest_mod, "check_dlog_roundtrip", lambda: False)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL dlog round trip" in out and out.endswith("selftest FAILED\n")


def test_cli_unreadable_job_file(tmp_path, capsys):
    assert main(["compute", str(tmp_path)]) == 5   # a directory, not a file
    err = capsys.readouterr().err
    assert err.startswith("I/O error: cannot read job file:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_output_to_missing_directory(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(JOB, encoding="utf-8")
    dest = tmp_path / "no-such-dir" / "report.json"
    assert main(["compute", "--output", str(dest), str(job)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("I/O error: cannot write output file:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not dest.parent.exists()
    # an empty path is a path that cannot be opened, not standard output
    assert main(["compute", "--output", "", str(job)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("I/O error: cannot write output file:")
    assert captured.err.count("\n") == 1


class _FullStdout(io.StringIO):
    """A standard output on a full device: ``fail`` names the method that
    raises ENOSPC, ``write`` or ``flush``."""

    def __init__(self, fail):
        super().__init__()
        self.fail = fail

    def write(self, text):
        if self.fail == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.fail == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fail", ["write", "flush"])
def test_cli_stdout_unwritable(tmp_path, capsys, monkeypatch, fail):
    job = tmp_path / "job.txt"
    job.write_text(JOB, encoding="utf-8")
    for argv in (["compare", "--format", "json", str(job)], ["selftest"]):
        monkeypatch.setattr("sys.stdout", _FullStdout(fail))
        assert main(argv) == 5
        assert capsys.readouterr().err == (
            f"I/O error: cannot write standard output: [Errno 28] "
            f"{os.strerror(errno.ENOSPC)}\n")


def _stdin(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_cli_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(JOB.encode("utf-8")))
    assert main(["compute", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["extension"]["degree"] == 2


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "write_only"])
def test_cli_stdin_unreadable(tmp_path, capsys, monkeypatch, closed):
    # descriptor 0 closed leaves sys.stdin None; opened write-only, reads fail
    with open(os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT), "r") as stdin:
        monkeypatch.setattr("sys.stdin", None if closed else stdin)
        assert main(["compute"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"I/O error: cannot read standard input: "
                            f"[Errno 9] {os.strerror(errno.EBADF)}\n")


def test_cli_job_text_not_utf8(tmp_path, capsys, monkeypatch):
    data = b"\xff\xfe" + JOB.encode("utf-8")
    job = tmp_path / "job.txt"
    job.write_bytes(data)
    assert main(["compute", str(job)]) == 2
    monkeypatch.setattr("sys.stdin", _stdin(data))
    assert main(["compute"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: job text is not valid UTF-8\n" * 2


def test_cli_job_with_byte_order_mark(tmp_path, capsys, monkeypatch):
    # one leading U+FEFF, as Windows editors write it, is not job text
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(JOB.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + JOB.encode("utf-8"))
    for fmt in ("text", "json"):
        assert main(["compare", "--format", fmt, str(plain)]) == 0
        want = capsys.readouterr()
        assert main(["compare", "--format", fmt, str(marked)]) == 0
        assert capsys.readouterr() == want
        monkeypatch.setattr("sys.stdin", _stdin(marked.read_bytes()))
        assert main(["compare", "--format", fmt]) == 0
        assert capsys.readouterr() == want


@pytest.mark.parametrize("argv", [
    ["compute", "--format", "xml"], ["compute", "--bogus"],
    ["compute", "--seed", "abc"], []])
def test_cli_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage:")


# job texts at the edges of the grammar and its bounds, with the exit codes
# of ``compare --infinite`` and ``compute --strict``
EDGE_FIELD, EDGE_COMPONENT = "field p=5 f=1\n", "component gamma=2 D=T m=4\n"
CLI_EDGE_CASES = {
    "q2_m1": ("field p=2 f=1\ncomponent gamma=1 D=T m=1\n", 0, 3),
    "q2_m2": ("field p=2 f=1\ncomponent gamma=1 D=T m=2\n", 3, 2),
    "D1": (EDGE_FIELD + "component gamma=2 D=1 m=4\n", 0, 0),
    "gamma0": (EDGE_FIELD + "component gamma=0 D=T m=4\n", 3, 3),
    "m_5000_digits": (EDGE_FIELD + f"component gamma=2 D=T m={'9' * 5000}\n", 2, 2),
    "m_100_digits": (EDGE_FIELD + f"component gamma=2 D=T m={'9' * 100}\n", 3, 2),
    "gen_g0": ("field p=5 f=1 gen=g^0\n" + EDGE_COMPONENT, 2, 2),
    "gen_4000_digits": (f"field p=5 f=1 gen=g^{'1' * 4000}\n" + EDGE_COMPONENT, 0, 0),
    "p_5000_digits": (f"field p={'9' * 5000} f=1\n" + EDGE_COMPONENT, 2, 2),
    "f_50_digits": (f"field p=5 f={'9' * 50}\n" + EDGE_COMPONENT, 2, 2),
    "mod_x1": ("field p=5 f=1 mod=x+1\n" + EDGE_COMPONENT, 0, 0),
    "2000_components": (EDGE_FIELD + EDGE_COMPONENT * 2000, 0, 0),
    "crlf": ((EDGE_FIELD + EDGE_COMPONENT).replace("\n", "\r\n"), 0, 0),
    "nul_in_field_line": ("field p=5\x00 f=1\n" + EDGE_COMPONENT, 2, 2),
    "byte_order_mark": ("\ufeff" + EDGE_FIELD + EDGE_COMPONENT, 0, 0),
}
# the whole stderr line of a refusal, where it is asserted
CLI_EDGE_ERRORS = {
    "m_5000_digits": "parse error: line 2, col 23: "
                     "integer of 5000 digits exceeds the 4300-digit limit\n",
    "p_5000_digits": "parse error: line 1, col 7: "
                     "integer of 5000 digits exceeds the 4300-digit limit\n",
}


@pytest.mark.parametrize("name", CLI_EDGE_CASES)
def test_cli_edge_cases(name, capsys, monkeypatch):
    text, lenient, strict = CLI_EDGE_CASES[name]
    for argv, code in ((["compare", "--infinite"], lenient),
                       (["compute", "--strict"], strict)):
        monkeypatch.setattr("sys.stdin", _stdin(text.encode("utf-8")))
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code:
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err == CLI_EDGE_ERRORS.get(name, captured.err)
        else:
            assert captured.err == ""


def test_cli_strict_flag(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text("field p=5 f=1\ncomponent gamma=4 D=1 m=2\n",
                   encoding="utf-8")
    assert main(["compute", str(job)]) == 0
    capsys.readouterr()
    assert main(["compute", "--strict", str(job)]) == 3
    capsys.readouterr()
