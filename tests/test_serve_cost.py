"""The daemon's SEPT cost model: its estimates and its persistence.

:class:`~repro.serve.jobs.CostModel` orders the daemon's point queue by
expected simulation cost.  The unit tests pin its arithmetic (the EMA of
seconds per replication, cache hits that cost nothing, the achieved-``n``
history of adaptive runs) and its ``to_dict``/``from_dict`` round trip.
The daemon tests pin when ``cost.json`` is written: only at a clean stop,
never per finished job, and a corrupt file starts a fresh model instead
of stopping the daemon.
"""

import json

import pytest

from repro.serve import ServerHarness
from repro.serve.jobs import CostModel

REPS = 3


def test_observe_folds_rates_into_an_ema():
    model = CostModel(default_seconds_per_rep=0.01)
    # an unseen scenario predicts the default rate
    assert model.predict("E1", replications=4, adaptive=False) == 0.01 * 4
    model.observe("E1", simulated=4, seconds=2.0)  # 0.5 s/rep, first: taken as is
    assert model.predict("E1", replications=4, adaptive=False) == 0.5 * 4
    model.observe("E1", simulated=2, seconds=0.5)  # 0.25 s/rep
    rate = CostModel.ALPHA * 0.25 + (1 - CostModel.ALPHA) * 0.5
    assert model.predict("E1", replications=10, adaptive=False) == rate * 10
    # other scenarios keep the default
    assert model.predict("E2", replications=1, adaptive=False) == 0.01


def test_cache_hit_leaves_the_rate_unchanged():
    model = CostModel()
    model.observe("E1", simulated=4, seconds=2.0)
    before = model.predict("E1", replications=4, adaptive=False)
    # a point served wholly from the store took time but simulated nothing
    model.observe("E1", simulated=0, seconds=0.3)
    assert model.predict("E1", replications=4, adaptive=False) == before


def test_adaptive_prediction_uses_the_achieved_replication_count():
    model = CostModel()
    model.observe("E1", simulated=40, seconds=4.0, achieved=40)  # 0.1 s/rep
    # adaptive points are costed by the achieved n, not the requested cap
    assert model.predict("E1", replications=1000, adaptive=True) == 0.1 * 40
    assert model.predict("E1", replications=1000, adaptive=False) == 0.1 * 1000
    model.observe("E1", simulated=10, seconds=1.0, achieved=10)
    achieved = CostModel.ALPHA * 10 + (1 - CostModel.ALPHA) * 40
    assert model.predict("E1", replications=1000, adaptive=True) == 0.1 * achieved
    # no adaptive history yet: the requested count stands in
    assert model.predict("E2", replications=7, adaptive=True) == 7 * 1e-3


def test_to_dict_from_dict_round_trip():
    model = CostModel(default_seconds_per_rep=0.02)
    model.observe("E5", simulated=3, seconds=0.3)
    model.observe("E1", simulated=8, seconds=0.2, achieved=8)
    snapshot = model.to_dict()
    restored = CostModel.from_dict(json.loads(json.dumps(snapshot)))
    assert restored.to_dict() == snapshot
    for sid in ("E1", "E5", "E9"):
        for adaptive in (False, True):
            assert restored.predict(
                sid, replications=5, adaptive=adaptive
            ) == model.predict(sid, replications=5, adaptive=adaptive)


def submission(reps=REPS):
    return {
        "schema": "repro.serve/v1",
        "spec": {"scenario_id": "E5", "axes": {"m": [2, 3]}, "mode": "grid"},
        "run": {"replications": reps, "seed": 0},
    }


@pytest.mark.parametrize(
    "text",
    [
        '{"seconds_per_rep": {"E5": 0.1',  # truncated write
        "[1, 2, 3]",  # valid JSON, not an object
        '{"seconds_per_rep": {"E5": "fast"}}',  # wrong value type
    ],
    ids=["truncated", "not-an-object", "wrong-type"],
)
def test_corrupt_cost_file_loads_as_a_fresh_model(tmp_path, text):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "cost.json").write_text(text)
    with ServerHarness(store=tmp_path / "store", spool_dir=spool) as h:
        assert h.server._cost.to_dict() == CostModel().to_dict()
        # and the daemon serves as usual
        job_id = h.client().submit(submission())["job_id"]
        assert h.client().fetch(job_id, wait=True, timeout=60)


def test_cost_history_is_saved_at_clean_stop_only(tmp_path):
    spool = tmp_path / "spool"
    cost_path = spool / "cost.json"
    with ServerHarness(store=tmp_path / "store", spool_dir=spool) as h:
        client = h.client()
        first = client.submit(submission())["job_id"]
        client.fetch(first, wait=True, timeout=60)
        second = client.submit(submission(reps=REPS + 1))["job_id"]
        client.fetch(second, wait=True, timeout=60)
        assert not cost_path.exists(), "cost.json written while serving"
        before = h.server._cost.predict("E5", replications=REPS, adaptive=False)
        assert before != CostModel().predict("E5", replications=REPS, adaptive=False)
    assert cost_path.exists(), "clean stop did not save the cost history"
    with ServerHarness(store=tmp_path / "store", spool_dir=spool) as h2:
        after = h2.server._cost.predict("E5", replications=REPS, adaptive=False)
    assert after == before
