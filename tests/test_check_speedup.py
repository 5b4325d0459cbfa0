"""The E12 speedup gate (``tools/check_speedup.py``, the code CI runs)."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_speedup  # noqa: E402  (path set up above)


def _artifact(serial_skips=120, pool_hits=160, serial_mine_skips=77):
    arm = {"jobs": 1, "matches_serial": True, "speedup": 1.0,
           "prefix_hits": 160, "equivalent_skips": serial_skips,
           "mine_skips": serial_mine_skips}
    return {
        "meta": {"host_cpus": 2},
        "records": [
            dict(arm, label="serial"),
            dict(arm, label="pool jobs=4", jobs=4, prefix_hits=pool_hits),
        ],
    }


def test_a_healthy_artifact_passes():
    assert check_speedup.check(_artifact()) == []


def test_a_serial_arm_without_equivalent_skips_fails():
    failures = check_speedup.check(_artifact(serial_skips=0))
    assert len(failures) == 1 and "equivalent_skips is 0" in failures[0]


def test_a_pool_arm_without_prefix_hits_still_fails():
    failures = check_speedup.check(_artifact(pool_hits=0))
    assert len(failures) == 1 and "prefix_hits is 0" in failures[0]


def test_a_serial_arm_without_mine_skips_fails():
    failures = check_speedup.check(_artifact(serial_mine_skips=0))
    assert len(failures) == 1 and "mine_skips is 0" in failures[0]
