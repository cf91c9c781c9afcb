"""Byte-for-byte regression of the deterministic CLI outputs.

Each case runs one command in csv and in json and compares the sha256 of
every file it writes against a recorded digest.  Only deterministic
outputs are covered: Poisson-mode ensembles draw their counts through
``np.exp``, whose last bit may differ from one CPU to another.

To re-record after an intended output change, run this module as a
script (``PYTHONPATH=src python tests/test_golden_outputs.py``) and
paste the printed table over ``GOLDEN``.
"""

import hashlib
from pathlib import Path

import pytest

from frontpage.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_BASELINE = (CONFIGS / "votes_baseline.ini").read_text()

# name -> (argv before --config, config file or text, extra argv)
CASES = {
    "votes_baseline": (["simulate", "votes"], "votes_baseline.ini", []),
    "votes_network_sweep": (
        ["simulate", "votes"],
        "votes_network_sweep.ini",
        [
            "--sweep", "story.interestingness_r=0.1,0.5,0.9",
            "--sweep", "story.submitter_network_S=0,80,400",
        ],
    ),
    "rank_active_user": (["simulate", "rank"], "rank_active_user.ini", []),
    "ensemble_mean_one_run": (
        ["ensemble"],
        _BASELINE + "\n[ensemble]\nruns = 1\nseed = 3\narrival_mode = mean\n",
        [],
    ),
    "votes_dt_0.1": (
        ["simulate", "votes"], _BASELINE.replace("[vote]\n", "[vote]\ndt = 0.1\n"), []
    ),
    "votes_dt_0.5": (
        ["simulate", "votes"], _BASELINE.replace("[vote]\n", "[vote]\ndt = 0.5\n"), []
    ),
}

GOLDEN = {
    "votes_baseline-csv": {
        "summary.json":
            "2479945074cb2b88b7dfc6447deb59a1f1d8544c67666bc5c58ac60f951557f7",
        "votes.csv":
            "54024a8005bed3920d18a1eb5b147aecb52191f93dddfb260077712ddd9acbdc",
    },
    "votes_baseline-json": {
        "summary.json":
            "54114c1fd6bf8edad7682805f987b4cb0c135a13d418fa424c080e83bf772863",
    },
    "votes_network_sweep-csv": {
        "summary.json":
            "3af62287122d5cdb476e90eb3435d15929fa6a2710d17c2860dece6fec6145c9",
        "votes_interestingness_r=0.1_submitter_network_S=0.csv":
            "112318d3d9f1a3818bf0f420267a294358659cd8f2c938aeadef1024003049b6",
        "votes_interestingness_r=0.1_submitter_network_S=400.csv":
            "b328ede6e187bf26d8c5c2d12f85aa07b6f045b14ac621e341e90fe5064e0b29",
        "votes_interestingness_r=0.1_submitter_network_S=80.csv":
            "6378400a9be7465240dd823b54b0c2f86d34c8fd45f55da65d0216e55cce967d",
        "votes_interestingness_r=0.5_submitter_network_S=0.csv":
            "4dc9fa03d9d1fbc17f508df2c6821dea899144ffecf4c697a682251ddfbd1664",
        "votes_interestingness_r=0.5_submitter_network_S=400.csv":
            "39e3397404ad73cee5f617f3e6f3d87451197984130db8b632b0ac3e0208bb9a",
        "votes_interestingness_r=0.5_submitter_network_S=80.csv":
            "fbf3ada643127dee6ea988e9d582d61ff763f296a088b09b845bed1237d62a12",
        "votes_interestingness_r=0.9_submitter_network_S=0.csv":
            "a7033f80df46bac2118b91ae9d43417993f16004c44d8c757b3b7f6a47d98bf5",
        "votes_interestingness_r=0.9_submitter_network_S=400.csv":
            "33d4f1c38f07249b2ed1ea45883bc491e1364d2a3d1acf53639dab54cd40db78",
        "votes_interestingness_r=0.9_submitter_network_S=80.csv":
            "b9a0109d3a28246c1bd218fc713ae535d0ae072c00ec98f65a6e06894a49e399",
    },
    "votes_network_sweep-json": {
        "summary.json":
            "4dceaee56699344600992431b9ae542672cf4dd71a718025b806bd009d1f80d8",
    },
    "rank_active_user-csv": {
        "rank.csv":
            "77723da93953b010f7a1c4c6d9348fa7263351afca93485e90c1d11be5e94786",
        "summary.json":
            "295fa22bfd6679221639a003e15de743eee102f7f9aea5628700c93ddfc26bd6",
    },
    "rank_active_user-json": {
        "summary.json":
            "bb02adf1b71273bae8949848192d559fc2f4b8c7a100f08dfcd3ad949413f715",
    },
    "ensemble_mean_one_run-csv": {
        "ensemble_mean.csv":
            "54024a8005bed3920d18a1eb5b147aecb52191f93dddfb260077712ddd9acbdc",
        "summary.json":
            "520bcb2ed48023c841a2e2b26899fa3a4b1c51cd39a9ae610c41cb68152d84a8",
    },
    "ensemble_mean_one_run-json": {
        "summary.json":
            "1bb228de697b9e534fad3397167df799bcbd8e46ae6877ebe6aa2ebabfaaddf4",
    },
    "votes_dt_0.1-csv": {
        "summary.json":
            "75ee2cef026ceadd12bdbbde1cdbbbdd647c0d6694f01b6547b562454fe00989",
        "votes.csv":
            "a586779ac2aaf427d6333a06be1e5a5d26395efa3c5a820f733a75211d49f2a4",
    },
    "votes_dt_0.1-json": {
        "summary.json":
            "9f6f2706a8b6612b35fd74b17225cb9c9cc1b60d6979f98cc9ad7f5c38a99e8d",
    },
    "votes_dt_0.5-csv": {
        "summary.json":
            "e4ce4af7c074d9cf9b0dbf7b09d1405241d9321217c6fab25734d9a56cd71491",
        "votes.csv":
            "496283985d7a7e7ff6cd0e0c8a8c8e0c8091e868d34d0e47892fed5bcdc176c2",
    },
    "votes_dt_0.5-json": {
        "summary.json":
            "77ba70b6541a8d9abd52ba724cec746a281a90b97e5a3228f726f161cf424bc6",
    },
}


def _digests(name: str, fmt: str, work: Path) -> dict[str, str]:
    command, config, extra = CASES[name]
    if config.endswith(".ini"):
        path = CONFIGS / config
    else:
        path = work / "config.ini"
        path.write_text(config)
    out = work / "out"
    assert main([*command, "--config", str(path), "--format", fmt, *extra,
                 "--out", str(out)]) == 0
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_unchanged(name, fmt, tmp_path):
    assert _digests(name, fmt, tmp_path) == GOLDEN[f"{name}-{fmt}"]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN = {")
    for name in CASES:
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as work:
                print(f'    "{name}-{fmt}": {{')
                for file, digest in _digests(name, fmt, Path(work)).items():
                    print(f'        "{file}":\n            "{digest}",')
                print("    },")
    print("}")
