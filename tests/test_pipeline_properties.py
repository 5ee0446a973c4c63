"""Property test of the whole pipeline.

``run`` on a random descriptor over the selftest field pool, with the
comparison section and the infinite place on, returns a report; in
strict mode it may refuse, with ``InvalidDescriptorError`` only, a job
whose lenient report drops a component, and otherwise gives the same
bytes.  Every report satisfies the invariants that the benchmark checks
on each job's JSON.
"""

import dataclasses
import json
import random
from math import prod

from hypothesis import given, settings, strategies as st

from genusfields import InvalidDescriptorError, JobConfig, run
from genusfields.selftest import FIELD_POOL, pooled_field, random_descriptor


def check_report(rep: dict) -> None:
    ext, cl, ra, cmp_ = rep["extension"], rep["clement"], rep["rarzvi"], rep["comparison"]
    assert cl["degree"] == ext["exponent"] * prod(
        r["e"] for r in rep["ramification"]["finite"])
    assert cmp_["k_in_rarzvi"] and cmp_["rarzvi_in_clement"]
    assert cmp_["index_rarzvi_in_clement"] * ra["degree"] == cl["degree"]
    assert cmp_["degrees"] == {"k": ext["degree"], "rarzvi": ra["degree"],
                               "clement": cl["degree"]}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELD_POOL), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_run_on_random_descriptors(pf, seed, strict):
    desc = random_descriptor(random.Random(seed), field=pooled_field(*pf))
    config = JobConfig(field=desc.field, components=desc.components,
                       include_infinite=True, include_comparison=True)
    text = run(config).to_json()
    rep = json.loads(text)
    check_report(rep)
    if strict:
        try:
            assert run(dataclasses.replace(config, strict=True)).to_json() == text
        except InvalidDescriptorError:
            assert rep["extension"]["dropped_components"]
        else:
            assert not rep["extension"]["dropped_components"]
