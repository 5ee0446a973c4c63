"""Job parsing, the computation pipeline and deterministic reports.

Input grammar (line oriented, ``#`` starts a comment, whitespace inside
values is insignificant)::

    field p=<int> f=<int> [mod=<poly in x>] [gen=<const>]
    component gamma=<const> D=<poly in T> m=<int>

Constants are integers 0..p-1 on prime fields and ``g^<k>`` (or ``0``)
on extension fields, where g is the canonical generator; polynomials
are ``+``-separated monomials ``c*T^e``, ``T^e``, ``T`` or ``c``.  Every
integer (``<int>``, ``<k>``, ``e`` and ``c``, ``mod`` coefficients) is
ASCII digits 0-9 only: no sign, no underscore, no other digits.  The
``field`` line must come first and at least one ``component`` must
follow.  This module also owns the canonical renderings of constants
and polynomials, so reports are byte-identical across runs for a fixed
configuration and seed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import prod

from .errors import (FieldArgumentError, InternalCheckError,
                     InvalidDescriptorError, ParseError)
from .ffield import FqField, FqElem, build_field
from .genus import (GenusField, clement_genus_field, compare,
                    rarzvi_genus_field, signed_closed_form_agrees,
                    verify_degree_formula)
from .kummer import (KummerComponent, KummerDescriptor, infinite_ramification,
                     normalize, ramification_lcm_oracle)
from .polyring import Poly

_MAX_EXPONENT = 1 << 12


# ---------------------------------------------------------------------------
# canonical renderings

def render_const(field: FqField, x: FqElem) -> str:
    if field.f == 1:
        return str(x.coeffs[0])
    return "0" if x.is_zero() else f"g^{x.dlog()}"


def render_poly(poly: Poly, var: str = "T") -> str:
    if poly.is_zero():
        return "0"
    field = poly.field
    coeffs = poly.coeffs
    terms = []
    for i in range(poly.degree(), -1, -1):
        c = coeffs[i]
        if c.is_zero():
            continue
        if i == 0:
            terms.append(render_const(field, c))
            continue
        var_part = var if i == 1 else f"{var}^{i}"
        if c == field.one:
            terms.append(var_part)
        else:
            terms.append(f"{render_const(field, c)}*{var_part}")
    return "+".join(terms)


def render_modulus(field: FqField) -> str:
    terms = []
    for i in range(field.f, -1, -1):
        c = field.modulus[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var_part = "x" if i == 1 else f"x^{i}"
            terms.append(var_part if c == 1 else f"{c}*{var_part}")
    return "+".join(terms) if terms else "0"


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


def _parse_monomial(field: FqField, token: str, var: str) -> tuple[FqElem, int]:
    if "*" in token:
        c_tok, _, v_tok = token.partition("*")
        if "*" in v_tok or not c_tok or not v_tok:
            raise ValueError(f"bad monomial {token!r}")
        coef = parse_const(field, c_tok)
        exp = _parse_varpow(v_tok, var)
    elif token.startswith(var):
        coef = field.one
        exp = _parse_varpow(token, var)
    else:
        coef = parse_const(field, token)
        exp = 0
    return coef, exp


def _parse_varpow(token: str, var: str) -> int:
    if token == var:
        return 1
    if not token.startswith(var + "^"):
        raise ValueError(f"bad power of {var}: {token!r}")
    exp = _parse_uint(token[len(var) + 1:], f"bad power of {var}: {token!r}")
    if exp > _MAX_EXPONENT:
        raise ValueError(f"exponent {exp} too large")
    return exp


def parse_poly(field: FqField, token: str, var: str = "T") -> Poly:
    token = re.sub(r"\s+", "", token)
    if not token:
        raise ValueError("empty polynomial")
    coeffs: dict[int, FqElem] = {}
    for mono in token.split("+"):
        if not mono:
            raise ValueError(f"empty monomial in {token!r}")
        coef, exp = _parse_monomial(field, mono, var)
        coeffs[exp] = coeffs[exp] + coef if exp in coeffs else coef
    out = [field.zero] * (max(coeffs) + 1)
    for exp, coef in coeffs.items():
        out[exp] = coef
    return Poly(field, out)


def _parse_modulus_text(p: int, token: str) -> tuple[int, ...]:
    token = re.sub(r"\s+", "", token)
    coeffs: dict[int, int] = {}
    for mono in token.split("+"):
        if not mono:
            raise ValueError(f"empty monomial in {token!r}")
        if "*" in mono:
            c_tok, _, v_tok = mono.partition("*")
            coef = _parse_uint(c_tok, f"bad coefficient {c_tok!r}")
            exp = _parse_varpow(v_tok, "x")
        elif mono.startswith("x"):
            coef, exp = 1, _parse_varpow(mono, "x")
        else:
            coef = _parse_uint(mono, f"cannot parse monomial {mono!r}")
            exp = 0
        if coef >= p:
            raise ValueError(f"modulus coefficient {coef} not in 0..{p - 1}")
        coeffs[exp] = (coeffs.get(exp, 0) + coef) % p
    out = [0] * (max(coeffs) + 1)
    for exp, coef in coeffs.items():
        out[exp] = coef
    return tuple(out)


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


_ASSIGN_RE = re.compile(r"([A-Za-z]+)\s*=")


def _split_assignments(body: str, line_no: int, offset: int):
    """key=value pairs of one directive body; values may contain spaces."""
    matches = list(_ASSIGN_RE.finditer(body))
    if not matches:
        raise ParseError("expected key=value assignments", line_no, offset + 1)
    head = body[:matches[0].start()].strip()
    if head:
        raise ParseError(f"unexpected text {head!r}", line_no, offset + 1)
    out = []
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(body)
        value = body[match.end():end].strip()
        out.append((match.group(1), value, offset + match.start() + 1))
    return out


def _int_value(seen, key, line_no, what="an integer") -> int:
    """The <int> value of ``key``; a ParseError points at the value."""
    value, col = seen[key]
    try:
        return _parse_uint(value, f"{key} must be {what}")
    except ValueError as exc:
        raise ParseError(str(exc), line_no, col) from None


def _parse_field_line(assigns, line_no):
    seen = {}
    for key, value, col in assigns:
        if key not in ("p", "f", "mod", "gen"):
            raise ParseError(f"unknown key {key!r} on field line", line_no, col)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line_no, col)
        seen[key] = (value, col)
    for key in ("p", "f"):
        if key not in seen:
            raise ParseError(f"field line is missing {key!r}", line_no, 1)
    p, f = (_int_value(seen, key, line_no) for key in ("p", "f"))

    modulus = None
    if "mod" in seen:
        value, col = seen["mod"]
        try:
            modulus = _parse_modulus_text(p, value)
        except ValueError as exc:
            raise ParseError(str(exc), line_no, col) from None
    try:
        field = build_field(p, f, modulus=modulus)
    except FieldArgumentError as exc:
        key = "mod" if exc.arg == "modulus" else exc.arg
        raise ParseError(str(exc), line_no, seen[key][1]) from None
    if "gen" in seen:
        value, col = seen["gen"]
        try:
            gen = parse_const(field, value)
            field = build_field(p, f, modulus=modulus, generator=gen.coeffs)
        except ValueError as exc:
            raise ParseError(str(exc), line_no, col) from None
    return field


def _parse_component_line(field, assigns, line_no, strict):
    seen = {}
    for key, value, col in assigns:
        if key not in ("gamma", "D", "m"):
            raise ParseError(f"unknown key {key!r} on component line", line_no, col)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line_no, col)
        seen[key] = (value, col)
    for key in ("gamma", "D", "m"):
        if key not in seen:
            raise ParseError(f"component line is missing {key!r}", line_no, 1)
    value, col = seen["gamma"]
    try:
        gamma = parse_const(field, value)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, col) from None
    value, col = seen["D"]
    try:
        D = parse_poly(field, value, "T")
    except ValueError as exc:
        raise ParseError(str(exc), line_no, col) from None
    if not D.is_monic():
        raise ParseError("D must be monic", line_no, col)
    col = seen["m"][1]
    m = _int_value(seen, "m", line_no, "a positive integer")
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
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        match = re.match(r"\s*([A-Za-z]+)", line)
        if match is None:
            col = len(line) - len(line.lstrip()) + 1
            raise ParseError("expected a field or component line", line_no, col)
        word = match.group(1)
        body_start = match.end()
        body = line[body_start:]
        if word == "field":
            if field is not None:
                raise ParseError("duplicate field line", line_no, match.start(1) + 1)
            field = _parse_field_line(
                _split_assignments(body, line_no, body_start), line_no)
        elif word == "component":
            if field is None:
                raise ParseError("component line before any field line",
                                 line_no, match.start(1) + 1)
            components.append(_parse_component_line(
                field, _split_assignments(body, line_no, body_start),
                line_no, strict))
        else:
            raise ParseError(f"unknown directive {word!r}", line_no,
                             match.start(1) + 1)
    if field is None:
        raise ParseError("missing field line", 0, 0)
    if not components:
        raise ParseError("expected at least one component line", 0, 0)
    return JobConfig(field=field, components=tuple(components), strict=strict)


def render_job(config: JobConfig) -> str:
    """Canonical job text; reparsing it reproduces field and components."""
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
    """Every cross-check of a job; ``rep`` is ``compare(ext, cl, ra)``."""
    if not verify_degree_formula(cl, ext):
        raise InternalCheckError("degree formula violated")
    if not rep.k_in_rarzvi:
        raise InternalCheckError("containment chain violated: K not in rarzvi")
    if not rep.rarzvi_in_clement:
        raise InternalCheckError("containment chain violated: rarzvi not in clement")
    if rep.index_rarzvi_in_clement * rep.degree_rarzvi != rep.degree_clement:
        raise InternalCheckError("comparison index is not the degree ratio")
    if cl.group.constant_subgroup_order() != ext.n:
        raise InternalCheckError("constant field of the genus field is not F_(q^n)")
    if ext.ramification != ramification_lcm_oracle(ext):
        raise InternalCheckError("ramification formulas disagree")
    for gf in (cl, ra):
        if prod(gf.galois) != gf.degree:
            raise InternalCheckError("galois structure inconsistent with degree")


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
