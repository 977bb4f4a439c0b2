"""``job_id`` splices cached machine/scale JSON into the canonical blob.

The id must stay the sha256 of :func:`canonical_job_payload` serialised as
sorted, compact JSON, byte for byte, whichever config objects it sees.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.campaign.ids import canonical_job_payload, job_id
from repro.config import scaled_config
from repro.configs import get_machine_config
from repro.sim import ExperimentScale
from repro.sim.batch import Job

SCALE = ExperimentScale(warmup_instructions=200, sim_instructions=600,
                        sample_interval=60, seed=1)
JOBS = (Job("470.lbm"), Job("470.lbm", mode="pinte", p_induce=0.1),
        Job("450.soplex", mode="pair", co_runner="470.lbm", co_seed=1),
        Job("450.soplex", mode="multi", co_runners=("470.lbm", "403.gcc"),
            scheme="ucp", repartition_interval=200, trace_seed=4),
        Job("café", mode="pinte", p_induce=1e-3, pinte_seed=9))


def payload_id(job, config, scale) -> str:
    blob = json.dumps(canonical_job_payload(job, config, scale),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("config", [scaled_config(), scaled_config("NNI"),
                                    get_machine_config("xeon")],
                         ids=["scaled", "prefetching", "xeon"])
def test_job_id_hashes_the_canonical_payload(config):
    for job in JOBS:
        assert job_id(job, config, SCALE) == payload_id(job, config, SCALE)


def test_equal_configs_spelled_differently_keep_their_own_ids():
    # 4 == 4.0, but the canonical JSON tells them apart, so must the ids.
    config = scaled_config()
    twin = replace(config, core=replace(config.core, mlp=4))
    assert twin == config
    job = JOBS[1]
    assert job_id(job, config, SCALE) == payload_id(job, config, SCALE)
    assert job_id(job, twin, SCALE) == payload_id(job, twin, SCALE)
    assert job_id(job, config, SCALE) != job_id(job, twin, SCALE)
