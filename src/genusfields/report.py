"""Job parsing, the computation pipeline and deterministic reports.

Input grammar (line oriented: a line ends at ``\n``, ``\r\n`` or ``\r``
and nowhere else, ``#`` starts a comment, whitespace inside values is
insignificant)::

    field p=<int> f=<int> [mod=<poly in x>] [gen=<const>]
    component gamma=<const> D=<poly in T> m=<int>

A constant (``gamma``, ``gen``, a coefficient of ``D``) is ``g``,
``g^<k>`` or an integer 0..p-1 on every field, where g is the canonical
generator; :func:`render_const` writes it back as an integer on prime
fields and as ``0`` or ``g^<k>``, 0 <= k < q - 1, on extension fields.
Both polynomials, ``D`` over F_q and ``mod`` over F_p (integer
coefficients 0..p-1 only), are ``+``-separated monomials ``c*V^e``,
``V^e``, ``V`` or ``c`` in their variable, with e at most
``_MAX_EXPONENT`` (4096); like terms are summed and zero terms dropped.
Every integer (``<int>``, ``<k>``, ``e`` and ``c``) is ASCII digits 0-9
only: no sign, no underscore, no other digits.  The ``field`` line must
come first and at least one ``component`` must follow.

The grammar is read and written in one place each: ``_parse_terms``
reads both polynomials and ``_render_terms`` writes them, ``_assignments``
reads the key=value pairs of both directives against ``_KEYS``, and
``_value`` reports a refused value at its key's column.  The canonical
renderings make reports byte-identical across runs for a fixed
configuration and seed.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from functools import partial
from math import prod

from .errors import (FieldArgumentError, InternalCheckError,
                     InvalidDescriptorError, ParseError)
from .ffield import FqField, FqElem, build_field, field_order
from .genus import (GenusField, clement_genus_field, compare,
                    rarzvi_genus_field, signed_closed_form_agrees,
                    verify_degree_formula)
from .kummer import (KummerComponent, KummerDescriptor, infinite_ramification,
                     normalize, ramification_lcm_oracle)
from .kernel import trim
from .polyring import Poly

_MAX_EXPONENT = 1 << 12


# ---------------------------------------------------------------------------
# canonical renderings

def render_const(field: FqField, x: FqElem) -> str:
    if field.f == 1:
        return str(x.coeffs[0])
    return "0" if x.is_zero() else f"g^{x.dlog()}"


def _render_terms(coeffs, var: str, const, one) -> str:
    """The grammar's sum of the nonzero ``coeffs`` (constant term first)
    as monomials in ``var``, highest power first; ``const`` renders a
    coefficient and a coefficient equal to ``one`` is omitted."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(const(c))
        else:
            var_part = var if i == 1 else f"{var}^{i}"
            terms.append(var_part if c == one else f"{const(c)}*{var_part}")
    return "+".join(terms) or "0"


def render_poly(poly: Poly, var: str = "T") -> str:
    field = poly.field
    return _render_terms(poly.coeffs, var, partial(render_const, field), field.one)


def render_modulus(field: FqField) -> str:
    return _render_terms(field.modulus, "x", str, 1)


# ---------------------------------------------------------------------------
# parsing

_UINT_RE = re.compile(r"[0-9]+")


def _parse_uint(token: str, error: str) -> int:
    """The grammar's <int>; raises ``ValueError(error)`` on anything else."""
    if _UINT_RE.fullmatch(token):
        try:
            return int(token)
        except ValueError:   # more digits than int() converts
            pass
    raise ValueError(error)


def parse_const(field: FqField, token: str) -> FqElem:
    token = token.strip()
    if token == "g":
        return field.g
    if token.startswith("g^"):
        return field.g ** _parse_uint(token[2:], f"bad generator power {token!r}")
    value = _parse_uint(token, f"cannot parse constant {token!r}")
    if value >= field.p:
        raise ValueError(f"constant {value} not in F_{field.q}"
                         if field.f == 1 else
                         f"integer constants must lie in 0..{field.p - 1}")
    return field.const(value)


def _parse_varpow(token: str, var: str) -> int:
    if token == var:
        return 1
    if not token.startswith(var + "^"):
        raise ValueError(f"bad power of {var}: {token!r}")
    exp = _parse_uint(token[len(var) + 1:], f"bad power of {var}: {token!r}")
    if exp > _MAX_EXPONENT:
        raise ValueError(f"exponent {exp} too large")
    return exp


def _parse_terms(token: str, var: str, coef, add) -> list:
    """Coefficients, constant term first and trailing zeros dropped, of a
    ``+``-separated sum of monomials ``c*V^e``, ``V^e``, ``V`` or ``c`` in
    ``var``.  ``coef`` reads a ``c`` (the implicit one as ``"1"``) and
    ``add`` sums like terms."""
    token = re.sub(r"\s+", "", token)
    if not token:
        raise ValueError("empty polynomial")
    terms = {}
    for mono in token.split("+"):
        if not mono:
            raise ValueError(f"empty monomial in {token!r}")
        c_tok, star, v_tok = mono.partition("*")
        if star:
            c, e = coef(c_tok), _parse_varpow(v_tok, var)
        elif mono.startswith(var):
            c, e = coef("1"), _parse_varpow(mono, var)
        else:
            c, e = coef(mono), 0
        terms[e] = add(terms[e], c) if e in terms else c
    zero = coef("0")
    return trim([terms.get(e, zero) for e in range(max(terms) + 1)])


def parse_poly(field: FqField, token: str, var: str = "T") -> Poly:
    return Poly(field, _parse_terms(token, var, partial(parse_const, field),
                                    operator.add))


def _parse_modulus(p: int, token: str) -> tuple[int, ...]:
    def coef(c_tok):
        c = _parse_uint(c_tok, f"bad coefficient {c_tok!r}")
        if c >= p:
            raise ValueError(f"modulus coefficient {c} not in 0..{p - 1}")
        return c
    return tuple(_parse_terms(token, "x", coef, lambda a, b: (a + b) % p))


@dataclass(frozen=True)
class JobConfig:
    """One validated job: the field, the components and the run options."""

    field: FqField
    components: tuple[KummerComponent, ...]
    seed: int = 0
    fmt: str = "text"
    strict: bool = False
    include_infinite: bool = False
    include_comparison: bool = False

    def descriptor(self) -> KummerDescriptor:
        return KummerDescriptor(self.field, self.components)


# directive -> (required keys, optional keys)
_KEYS = {"field": (("p", "f"), ("mod", "gen")),
         "component": (("gamma", "D", "m"), ())}
_ASSIGN_RE = re.compile(r"([A-Za-z]+)\s*=")


def _assignments(word: str, body: str, line_no: int, offset: int) -> dict:
    """``{key: (value, col)}`` of the key=value pairs of one ``word``
    directive, whose body starts at ``offset``; values may hold spaces."""
    matches = list(_ASSIGN_RE.finditer(body))
    if not matches:
        raise ParseError("expected key=value assignments", line_no, offset + 1)
    head = body[:matches[0].start()].strip()
    if head:
        raise ParseError(f"unexpected text {head!r}", line_no, offset + 1)
    required, optional = _KEYS[word]
    ends = [match.start() for match in matches[1:]] + [len(body)]
    seen = {}
    for match, end in zip(matches, ends):
        key, col = match.group(1), offset + match.start() + 1
        if key not in required + optional:
            raise ParseError(f"unknown key {key!r} on {word} line", line_no, col)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line_no, col)
        seen[key] = (body[match.end():end].strip(), col)
    for key in required:
        if key not in seen:
            raise ParseError(f"{word} line is missing {key!r}", line_no, 1)
    return seen


def _value(seen, key, line_no, parse):
    """``parse`` of the value of ``key``; a ValueError becomes a
    ParseError at the key's column."""
    value, col = seen[key]
    try:
        return parse(value)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, col) from None


def _parse_field_line(seen, line_no):
    p, f = (_value(seen, key, line_no,
                   partial(_parse_uint, error=f"{key} must be an integer"))
            for key in ("p", "f"))
    modulus = None
    try:
        field_order(p, f)   # p and f are refused before mod= is read against p
        if "mod" in seen:
            modulus = _value(seen, "mod", line_no, partial(_parse_modulus, p))
        field = build_field(p, f, modulus=modulus)
    except FieldArgumentError as exc:
        key = "mod" if exc.arg == "modulus" else exc.arg
        raise ParseError(str(exc), line_no, seen[key][1]) from None
    if "gen" not in seen:
        return field
    # a power of g is taken on its coordinates and binds nothing, so the
    # default field that gen= is read on builds no tables
    return _value(seen, "gen", line_no, lambda value: build_field(
        p, f, modulus=modulus, generator=parse_const(field, value).coeffs))


def _parse_component_line(field, seen, line_no, strict):
    gamma = _value(seen, "gamma", line_no, partial(parse_const, field))
    D = _value(seen, "D", line_no, partial(parse_poly, field))
    if not D.is_monic():
        raise ParseError("D must be monic", line_no, seen["D"][1])
    m = _value(seen, "m", line_no,
               partial(_parse_uint, error="m must be a positive integer"))
    col = seen["m"][1]
    if m < 1:
        raise ParseError("m must be a positive integer", line_no, col)
    if strict and (field.q - 1) % m != 0:
        raise ParseError(f"m = {m} does not divide q - 1 = {field.q - 1}",
                         line_no, col)
    return KummerComponent(gamma, D, m)


def parse_input(text: str, strict: bool = False) -> JobConfig:
    """Parse a job per the grammar; raises :class:`ParseError` with the
    offending line and column."""
    field = None
    components = []
    # lines end only at \n, \r\n or \r; the other characters at which
    # str.splitlines() breaks are whitespace
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        match = re.match(r"\s*([A-Za-z]+)", line)
        if match is None:
            col = len(line) - len(line.lstrip()) + 1
            raise ParseError("expected a field or component line", line_no, col)
        word, col = match.group(1), match.start(1) + 1
        if word not in _KEYS:
            raise ParseError(f"unknown directive {word!r}", line_no, col)
        if word == "field" and field is not None:
            raise ParseError("duplicate field line", line_no, col)
        if word == "component" and field is None:
            raise ParseError("component line before any field line", line_no, col)
        seen = _assignments(word, line[match.end():], line_no, match.end())
        if word == "field":
            field = _parse_field_line(seen, line_no)
        else:
            components.append(_parse_component_line(field, seen, line_no, strict))
    if field is None:
        raise ParseError("missing field line", 0, 0)
    if not components:
        raise ParseError("expected at least one component line", 0, 0)
    return JobConfig(field=field, components=tuple(components), strict=strict)


def render_job(config: JobConfig) -> str:
    """Canonical job text of a job or a descriptor (anything with ``field``
    and ``components``); reparsing it reproduces field and components."""
    field = config.field
    default = build_field(field.p, field.f)
    parts = [f"field p={field.p} f={field.f}"]
    if field.modulus != default.modulus:
        parts.append(f"mod={render_modulus(field)}")
    # the gen token is read relative to the default generator for the modulus
    base = build_field(field.p, field.f, modulus=field.modulus)
    if field.g.coeffs != base.g.coeffs:
        parts.append(f"gen={render_const(base, base.elem(field.g.coeffs))}")
    lines = [" ".join(parts)]
    for comp in config.components:
        lines.append(f"component gamma={render_const(field, comp.gamma)} "
                     f"D={render_poly(comp.D)} m={comp.m}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the pipeline

@dataclass(eq=False)
class Report:
    """Finished report payload with deterministic renderers."""

    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2)

    def to_text(self) -> str:
        p = self.payload
        fld = p["field"]
        lines = [
            f"field        q = {fld['q']} = {fld['p']}^{fld['f']}   "
            f"modulus {fld['modulus']}   g = {fld['generator']}",
        ]
        ext = p["extension"]
        for i, comp in enumerate(ext["components"], 1):
            lines.append(f"component {i}  gamma={comp['gamma']} D={comp['D']} "
                         f"m={comp['m']}")
        lines.append(f"extension    [K:k] = {ext['degree']}   "
                     f"exponent n = {ext['exponent']}   "
                     f"galois {_fmt_galois(ext['galois'])}")
        ram = p["ramification"]
        if ram["finite"]:
            finite = "; ".join(f"{r['prime']}: e={r['e']}" for r in ram["finite"])
        else:
            finite = "none"
        lines.append(f"ramification {finite}")
        if "infinite" in ram:
            lines.append(f"infinite     e = {ram['infinite']}")
        cl = p["clement"]
        rads = ", ".join(_fmt_radical(r) for r in cl["radicals"]) or "none"
        lines.append(f"clement      constants deg {cl['constant_degree']}   "
                     f"radicals {rads}   degree {cl['degree']}   "
                     f"galois {_fmt_galois(cl['galois'])}")
        ra = p["rarzvi"]
        lines.append(f"rarzvi       constants deg {ra['constant_degree']}   "
                     f"degree {ra['degree']}   galois {_fmt_galois(ra['galois'])}")
        cmp_ = p["comparison"]
        if cmp_ is not None:
            lines.append(
                f"comparison   K in rarzvi: {_yn(cmp_['k_in_rarzvi'])}   "
                f"rarzvi in clement: {_yn(cmp_['rarzvi_in_clement'])}   "
                f"rarzvi = clement: {_yn(cmp_['rarzvi_eq_clement'])}   "
                f"index {cmp_['index_rarzvi_in_clement']}")
            degs = cmp_["degrees"]
            lines.append(f"degrees      K {degs['k']}   rarzvi {degs['rarzvi']}   "
                         f"clement {degs['clement']}")
            lines.append(f"angjau       {cmp_['angjau']}")
        for w in p["warnings"]:
            lines.append(f"warning      {w}")
        return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt_galois(factors) -> str:
    return " x ".join(f"C{d}" for d in factors) if factors else "C1"


def _fmt_radical(rad) -> str:
    base = rad["prime"] if rad["c"] in ("1", "g^0") else f"{rad['c']}*{rad['prime']}"
    if "+" in base or "*" in base:
        base = f"({base})"
    return f"{base}^(1/{rad['e']})"


def _genus_payload(field, gf: GenusField, with_radicals: bool) -> dict:
    out = {"constant_degree": gf.constant_degree}
    if with_radicals:
        out["radicals"] = [
            {"e": e, "c": render_const(field, c), "prime": render_poly(P.poly)}
            for e, c, P in gf.radicals]
    out["degree"] = gf.degree
    out["galois"] = list(gf.galois)
    return out


def _audit(ext, cl, ra, rep):
    """Every cross-check of a job; ``rep`` is ``compare(ext, cl, ra)``.
    A failure names the invariant and the job, on one line."""
    def fail(invariant):
        job = "; ".join(render_job(ext.descriptor).splitlines())
        raise InternalCheckError(f"{invariant} in job: {job}")

    if not verify_degree_formula(cl, ext):
        fail("degree formula violated")
    if not rep.k_in_rarzvi:
        fail("containment chain violated: K not in rarzvi")
    if not rep.rarzvi_in_clement:
        fail("containment chain violated: rarzvi not in clement")
    if rep.index_rarzvi_in_clement * rep.degree_rarzvi != rep.degree_clement:
        fail("comparison index is not the degree ratio")
    if cl.group.constant_subgroup_order() != ext.n:
        fail("constant field of the genus field is not F_(q^n)")
    if ext.ramification != ramification_lcm_oracle(ext):
        fail("ramification formulas disagree")
    for gf in (cl, ra):
        if prod(gf.galois) != gf.degree:
            fail("galois structure inconsistent with degree")


def run(config: JobConfig) -> Report:
    """Execute one job; deterministic for a fixed config and seed.

    Raises :class:`InvalidDescriptorError` on bad extension data (or, in
    strict mode, on any dropped component) and
    :class:`InternalCheckError` when a built-in cross-check fails.
    """
    field = config.field
    desc = config.descriptor()
    ext = normalize(desc, seed=config.seed)
    if config.strict and (ext.dropped or ext.degenerate):
        raise InvalidDescriptorError(
            "trivial component (radicand already an m-th power) in strict mode")

    cl = clement_genus_field(ext)
    ra = rarzvi_genus_field(ext)
    rep = compare(ext, cl, ra)
    _audit(ext, cl, ra, rep)

    warnings = []
    for i in ext.dropped:
        warnings.append(f"component {i + 1} dropped: gamma*D is already an "
                        f"m-th power in k*")
    if ext.degenerate:
        warnings.append("all components are trivial: K = k")
    if signed_closed_form_agrees(ext, ra) is False:
        warnings.append("signed-prime closed form disagrees with the "
                        "compositum construction of the rarzvi field")

    payload = {
        "field": {
            "p": field.p, "f": field.f, "q": field.q,
            "modulus": render_modulus(field),
            "generator": render_const(field, field.g),
        },
        "extension": {
            "components": [
                {"gamma": render_const(field, c.gamma),
                 "D": render_poly(c.D), "m": c.m}
                for c in desc.components],
            "degree": ext.group.order(),
            "exponent": ext.n,
            "galois": list(ext.group.invariant_factors()),
            "degenerate": ext.degenerate,
            "dropped_components": [i + 1 for i in ext.dropped],
        },
        "ramification": {
            "finite": [{"prime": render_poly(P.poly), "e": e}
                       for P, e in ext.ramification],
        },
        "clement": _genus_payload(field, cl, with_radicals=True),
        "rarzvi": _genus_payload(field, ra, with_radicals=False),
        "comparison": None,
        "warnings": warnings,
    }
    if config.include_infinite:
        payload["ramification"]["infinite"] = infinite_ramification(ext)
    if config.include_comparison:
        payload["comparison"] = {
            "k_in_rarzvi": rep.k_in_rarzvi,
            "rarzvi_in_clement": rep.rarzvi_in_clement,
            "rarzvi_eq_clement": rep.rarzvi_eq_clement,
            "index_rarzvi_in_clement": rep.index_rarzvi_in_clement,
            "degrees": {"k": rep.degree_k, "rarzvi": rep.degree_rarzvi,
                        "clement": rep.degree_clement},
            "angjau": "not computed: no defining formula available",
        }
    return Report(payload)
