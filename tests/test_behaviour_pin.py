"""Pin the records of 600-s sessions to fixed digests.

The engine identity gates compare the tick and event engines on
45-90-s sessions, whose buffers never reach a pause threshold.  Both
engines share the player and the analyzer, so a change that alters
both alike passes them.  These sessions run the paper's full
length on two profiles: on profile 1 (0.35 Mbps) D1, D3 and S1 stall
and rebuffer, and on profile 11 (19 Mbps) all four services pause on
full buffers, many times over.  The digest is SHA-256 over
``repr([dataclasses.astuple(record)])``, the form
``bench/run.py:record_digest`` hashes.  A deliberate change of
behaviour must update these constants and say why.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import RunSpec, run_one

PINNED = {
    ("D1", 1): "b4b9f4260863482b8043bf7877ae3d8c640d5679d168c4a4ae87ac7bcdaa5afc",
    ("D1", 11): "340599a5ebfbbe73e49200f028e38a0203eaf87a702dbc88124cafbfc9d24e57",
    ("D3", 1): "41ca7ad40efa7fc796271cf3f18221a743f7d117ea4f5bf1dac9d7b7b9495f45",
    ("D3", 11): "97b85f07054e9a11b765851299bdc76a12a1e91b4962c2d4987d4ee109ada6df",
    ("S1", 1): "320afceccf1c6cca68deeec3d3ff2358f5058a3628082ad39bd46d033209090a",
    ("S1", 11): "52a69ae33f41220e20ff60b5170d9662e5213610beb5225aa663a44c5fc5f307",
    ("H4", 1): "398e95c10cbad027f3f2f66cca324648bef0344adb159be551662f0fba5ed53b",
    ("H4", 11): "423ada22932d734eea33cb8bf5dcbe48aebeff7f7cdaca4b44dbdac45a2f6382",
}


def record_digest(record) -> str:
    text = repr([dataclasses.astuple(record)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("service,profile_id", sorted(PINNED))
def test_600s_record_is_pinned(service, profile_id):
    spec = RunSpec(service=service, profile_id=profile_id, duration_s=600.0,
                   engine="event")
    record = run_one(spec, keep_result=False).record
    assert record_digest(record) == PINNED[(service, profile_id)]
