"""A job the service cannot compile is refused before it is admitted.

The server parses each job's pattern, level, target and semantics with
the parser the workers build jobs with, so a bad field answers ``ok:
false`` naming the job, and nothing is queued or compiled.  (Machines
stay a worker-side parse.)
"""

import pytest

from repro.experiments.models import flat_machine_with_unreachable_state
from repro.service import ServiceError, ServiceThread, compile_params

BAD_FIELDS = {
    "pattern": {"pattern": "no-such-pattern"},
    "level": {"level": "-O9"},
    "target": {"target": "rt99"},
    "semantics": {"semantics": {"event_pool": "no-such-policy"}},
}


@pytest.fixture(scope="module")
def good_job():
    return compile_params(flat_machine_with_unreachable_state())


@pytest.mark.parametrize("field", sorted(BAD_FIELDS))
def test_batch_with_a_bad_job_is_refused_before_admission(good_job, field):
    bad_job = dict(good_job, **BAD_FIELDS[field])
    with ServiceThread() as handle, handle.client() as client:
        with pytest.raises(ServiceError, match=r"^ValueError: job 1: ") as refused:
            client.submit_batch([good_job, bad_job])
        assert type(refused.value) is ServiceError     # not a busy reply
        doc = client.metrics()
    assert doc["cache"]["jobs"] == 0
    assert doc["queue"]["high_water"] == 0


@pytest.mark.parametrize("field", sorted(BAD_FIELDS))
def test_compile_with_a_bad_field_is_refused_before_admission(good_job,
                                                              field):
    with ServiceThread() as handle, handle.client() as client:
        with pytest.raises(ServiceError) as refused:
            client.request("compile", **dict(good_job, **BAD_FIELDS[field]))
        assert type(refused.value) is ServiceError
        doc = client.metrics()
    assert doc["cache"]["jobs"] == 0
    assert doc["queue"]["high_water"] == 0
