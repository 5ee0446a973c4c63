"""Property tests of the job grammar.

``parse_input`` on grammar-shaped lines with arbitrary values (non-ASCII
digits, digit strings around ``int``'s conversion limit, stray keys and
punctuation) either returns a config or raises ``ParseError``.  Rendering
a random config, on fields with overridden moduli and generators too, and
parsing it back reproduces the field and the components.
"""

import random
from math import gcd

from hypothesis import given, settings, strategies as st

from genusfields import JobConfig, ParseError, build_field, parse_input, render_job
from genusfields.selftest import FIELD_POOL, random_descriptor

# str.isdigit() holds for every character, int() refuses the superscripts
DIGITS = "0123456789²³٣۳१７"
VALUES = st.one_of(
    st.text(max_size=10),
    st.lists(st.sampled_from(DIGITS), min_size=1, max_size=4).map("".join),
    st.integers(-3, 1 << 64).map(str),
    st.integers(4290, 4310).map(lambda n: "7" * n),     # int()'s digit limit
    st.sampled_from(["T", "T^2+1", "2*T^4096+T", "T^4097", "g", "g^3",
                     "g^" + "9" * 30, "x^2+x+2", "x^2+1", "1+", "*T", ""]),
)
# values the grammar accepts on every field below; a job gets at most one
# arbitrary value, so the keys after it are parsed too
FIELDS = ({"p": ["5"], "f": ["1"]},
          {"p": ["3"], "f": ["2"], "mod": ["x^2+x+2"]},
          {"p": ["2"], "f": ["3"], "gen": ["g^3"]},
          {"p": ["13"], "f": ["1"], "gen": ["2"]})
GOOD = {"gamma": ["1", "g^3"], "D": ["T", "T^2+1", "1"], "m": ["2", "4"]}


@st.composite
def job_texts(draw):
    field = draw(st.sampled_from(FIELDS))
    lines = [("field", field)]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 9)) == 0:
            keys = draw(st.lists(st.sampled_from(list(GOOD) + ["p", "mod"]),
                                 min_size=1, max_size=4))
        else:
            keys = list(GOOD)
        lines.append(("component", {k: GOOD.get(k, ["5"]) for k in keys}))
    # (line, key) of the one arbitrary value, or None for none
    slot = draw(st.sampled_from(
        [(i, k) for i, (_, good) in enumerate(lines) for k in good] + [None]))
    out = []
    for i, (word, good) in enumerate(lines):
        parts = [word]
        for k, v in good.items():
            value = draw(VALUES if slot == (i, k) else st.sampled_from(v))
            parts.append(f"{k}={value}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=job_texts(), strict=st.booleans())
def test_parse_input_returns_config_or_parse_error(text, strict):
    try:
        config = parse_input(text, strict=strict)
    except ParseError:
        return
    assert isinstance(config, JobConfig) and config.components


def _moduli(p, f):
    """Every monic irreducible of degree f over F_p, as a modulus tuple."""
    out = []
    for idx in range(p ** f):
        cand = tuple((idx // p ** j) % p for j in range(f)) + (1,)
        try:
            build_field(p, f, modulus=cand)
        except ValueError:
            continue
        out.append(cand)
    return out


MODULI = {(p, f): _moduli(p, f) for p, f in FIELD_POOL if f > 1}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1 << 32), key=st.sampled_from(FIELD_POOL),
       pick=st.integers(0, 1 << 16), power=st.integers(1, 1 << 16))
def test_render_job_round_trip_overridden_fields(seed, key, pick, power):
    p, f = key
    modulus = None
    if f > 1:
        choices = MODULI[key]
        modulus = choices[pick % len(choices)]
    base = build_field(p, f, modulus=modulus)
    generator = None
    if gcd(power, base.q - 1) == 1:
        generator = (base.g ** power).coeffs
    fld = build_field(p, f, modulus=modulus, generator=generator)
    desc = random_descriptor(random.Random(seed), field=fld)
    config = JobConfig(field=fld, components=desc.components)
    again = parse_input(render_job(config))
    assert again.field == fld
    assert again.components == config.components
