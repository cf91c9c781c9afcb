"""Byte-for-byte regression of the deterministic CLI outputs.

Each case runs one command in csv and in json and compares the sha256 of
every file it writes against a recorded digest.  Only deterministic
outputs are covered: Poisson-mode ensembles draw their counts through
``np.exp``, whose last bit may differ from one CPU to another.  The
analysis commands read small CSVs generated here from ``random.random``,
whose stream Python keeps stable for a given seed.

To re-record after an intended output change, run this module as a
script (``PYTHONPATH=src python tests/test_golden_outputs.py``).  It
prints only the entries whose digests differ from ``GOLDEN``, and a count
of the unchanged ones; check that each printed entry is one the change
meant to alter, then paste it over its entry in ``GOLDEN``.
"""

import hashlib
import math
import random
from pathlib import Path

import pytest

from frontpage.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_BASELINE = (CONFIGS / "votes_baseline.ini").read_text()
_RANK = (CONFIGS / "rank_active_user.ini").read_text()

# A trace file name that JSON must escape: "input" in summary.json is
# written as ``\u`` escapes, a surrogate pair for the astral character.
_UNICODE_TRACE = "tr\u00e2ce-\u03a9-\U0001f4c8.csv"

# name -> (argv before the options, config file or text or None, extra argv).
# "{trace}", "{users}" and "{observations}" name the generated input CSVs,
# "{trace_unicode}" the trace again under a non-ASCII name.
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
    # F = 0 at week 0: an empty rank_proxy cell in csv, null in json
    "rank_unranked": (
        ["simulate", "rank"],
        _RANK.replace("front_page_F = 5\n", "front_page_F = 0\n"),
        [],
    ),
    "ensemble_mean_one_run": (
        ["ensemble"],
        _BASELINE + "\n[ensemble]\nruns = 1\nseed = 3\narrival_mode = mean\n",
        [],
    ),
    # --seed replaces the config's seed before the [ensemble] record is built
    "ensemble_mean_seed_override": (
        ["ensemble"],
        _BASELINE + "\n[ensemble]\nruns = 2\nseed = 3\narrival_mode = mean\n",
        ["--seed", "9"],
    ),
    "votes_dt_0.1": (
        ["simulate", "votes"], _BASELINE.replace("[vote]\n", "[vote]\ndt = 0.1\n"), []
    ),
    "votes_dt_0.5": (
        ["simulate", "votes"], _BASELINE.replace("[vote]\n", "[vote]\ndt = 0.5\n"), []
    ),
    "fit_linear": (["fit", "linear", "{trace}"], None, []),
    "fit_linear_through_origin": (
        ["fit", "linear", "{trace}"], None, ["--through-origin"]
    ),
    "fit_log": (["fit", "log", "{trace}"], None, ["--log-base", "10"]),
    "fit_log_defaults": (["fit", "log", "{trace}"], None, []),
    "fit_linear_unicode_name": (["fit", "linear", "{trace_unicode}"], None, []),
    "compare": (["compare", "{trace}"], "votes_baseline.ini", []),
    "fit_success": (
        ["fit", "success", "{users}"], None, ["--bins", "7", "--min-submissions", "20"]
    ),
    "fit_success_defaults": (["fit", "success", "{users}"], None, []),
    "significance": (["significance", "{observations}"], None, []),
}


def _write_inputs(work: Path) -> dict[str, str]:
    """Write the analysis input CSVs into ``work``; return their paths.

    20 trace ids follow a log law or a line with noise, 150 users have
    success rates rising with network size, and 40 friend-vote
    observations include a large sample and overlaps far below and far
    above the binomial mode, where the first tail terms underflow.
    """
    rng = random.Random(20070501)
    u = rng.random
    trace = ["id,t,value"]
    for i in range(20):
        t = 1.0
        a, b, log_law = 5 + 25 * u(), 1 + 19 * u(), u() < 0.5
        for _ in range(15 + int(16 * u())):
            t += 100 * u()
            value = a * (math.log(t) if log_law else 0.02 * t) + b + u() - 0.5
            trace.append(f"s{i:02d},{t!r},{value!r}")
    users = ["id,submissions,front_page_F,network_S"]
    for i in range(150):
        subs, net = 1 + int(399 * u()), int(1000 * u())
        promoted = int(subs * min(1.0, (0.01 + 0.0004 * net) * 2 * u()))
        users.append(f"u{i:03d},{subs},{promoted},{net}")
    obs = []
    for _ in range(34):
        n, pool = 20 + int(5000 * u()), 20_000 + int(30_000 * u())
        group = int(pool * (0.01 + 0.19 * u()))
        mean = n * group / pool
        k = round(mean + (2 * u() - 0.5) * math.sqrt(mean))
        obs.append((pool, n, group, min(max(k, 0), n, group)))
    obs += [
        (10_000_000, 200_000, 100_000, 2_100),  # large n, k just past the mode
        (10_000_000, 200_000, 100_000, 1),      # large n, k far below the mode
        (40_000, 5_000, 8_000, 1),              # first terms underflow below
        (40_000, 5_000, 400, 400),              # tiny tail, far above the mode
        (40_000, 5_000, 2_000, 1_500),          # every tail term underflows
        (40_000, 5_000, 40_000, 5_000),         # p = 1
    ]
    observations = ["id,pool_N,sample_n,group_K,overlap_k"] + [
        f"o{i:02d},{pool},{n},{group},{k}" for i, (pool, n, group, k) in enumerate(obs)
    ]
    paths = {}
    for name, lines in (
        ("trace", trace), ("users", users), ("observations", observations)
    ):
        paths[name] = str(work / f"{name}.csv")
        Path(paths[name]).write_text("\n".join(lines) + "\n")
    paths["trace_unicode"] = str(work / _UNICODE_TRACE)
    Path(paths["trace_unicode"]).write_text("\n".join(trace) + "\n")
    return paths


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
    "rank_unranked-csv": {
        "rank.csv":
            "fc9c2ed64772f0c77d60c32539f752b43e5436e6ec8920a90eb223351f6bd889",
        "summary.json":
            "5ab69f58a7f473ed46f0ee9a7bb00611480f73a91aee4aad3f8475fcca6d122b",
    },
    "rank_unranked-json": {
        "summary.json":
            "d73f2bb7ba5f15c1d00a750894bb87a810630a2cf2e0f9a5791b5e93e32de4f1",
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
    "ensemble_mean_seed_override-csv": {
        "ensemble_mean.csv":
            "54024a8005bed3920d18a1eb5b147aecb52191f93dddfb260077712ddd9acbdc",
        "summary.json":
            "dcad32cffa5242f4c6a64c1a2c84e9290c33a94db8c9232cc30c8cdbe3a02fe5",
    },
    "ensemble_mean_seed_override-json": {
        "summary.json":
            "f54b797164f1bb04e1052b811d534655f53f60d868a03787a0c616b9c0e5eff3",
    },
    "votes_dt_0.1-csv": {
        "summary.json":
            "75ee2cef026ceadd12bdbbde1cdbbbdd647c0d6694f01b6547b562454fe00989",
        "votes.csv":
            "a7d7fbf79ef5254c5cc38a3148ed68638b4702d9deac2e31dc38d20c06d6ccde",
    },
    "votes_dt_0.1-json": {
        "summary.json":
            "cb775f09f8bb63b8c39230dffa7cace2b26deec0a9c05fd38462dbb1305c34d5",
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
    "fit_linear-csv": {
        "fits.csv":
            "21767aee9afbda25aefacc43333c04bda5cc31068fd898b8ad3318e4cd7253ba",
        "summary.json":
            "c6a28f978c82fdd0b9122aeaec2c51e3f444b099950562939d8792ac2e156b57",
    },
    "fit_linear-json": {
        "summary.json":
            "3cd29cf9c40a23618f96071ad7d802cb30f7b94f1590e45c654c07663b8a220e",
    },
    "fit_linear_through_origin-csv": {
        "fits.csv":
            "d6de6f552a3c85e04c35469ba7156bc44de5f29d19bd8988cc47bf3ee6cfebe6",
        "summary.json":
            "0fc6050321494c51d095784536c1dbbed8a0df9a0d1c10fcbc1d54c196756fbd",
    },
    "fit_linear_through_origin-json": {
        "summary.json":
            "e1cd0e0ddc97e5e1dea94fca40bd921f88f0a7266d3f7282e4f031b347c42b88",
    },
    "fit_log-csv": {
        "fits.csv":
            "973ed6a9fd2cd15fc453b656d9967c521b2085fd59ff233acedc4804152dba1a",
        "summary.json":
            "36deb2c37de37b9a261cf783e8a924b00430278e6606974ec4262021fb9e5108",
    },
    "fit_log-json": {
        "summary.json":
            "c3aae1f4b063ba60c63276e7fcee587b70d93bfe7df6919cee3f7fcc41607b13",
    },
    "fit_log_defaults-csv": {
        "fits.csv":
            "66ae63151a6268cff888c0b98ba6d59038a2951f11a8be681aba2d9affabd301",
        "summary.json":
            "7d844fa157e969f72d62ed1b7eb215472e721aebb9f6162cde1eff27f9122977",
    },
    "fit_log_defaults-json": {
        "summary.json":
            "8e83102002eef042b696ca7f2345d6ef05d6cc0ec1ca95487ebef5c5ddb66913",
    },
    "fit_linear_unicode_name-csv": {
        "fits.csv":
            "21767aee9afbda25aefacc43333c04bda5cc31068fd898b8ad3318e4cd7253ba",
        "summary.json":
            "3f7de80880bbbc275a7faab739cb674f4f9e8fc76d924a4ad5559524df19272d",
    },
    "fit_linear_unicode_name-json": {
        "summary.json":
            "8cadb28dfec9905242c18cd791c078451b1a8fdaa45f0f5b995f016f0c8e3aa6",
    },
    "compare-csv": {
        "compare.csv":
            "de51d1d3c93c14d19c7d2e34339861f72f2a433f2b0f5ceafcccb65c64fc3ae0",
        "summary.json":
            "da0df039317b5720dbdf5b7e27e5a1c289004055eafd26b3e43cddf7b41170ee",
    },
    "compare-json": {
        "summary.json":
            "e751d7c55f1a0a8f43d339a50680a6dd3a62b73eef109e99b785330a97c8a1cf",
    },
    "fit_success-csv": {
        "success_bins.csv":
            "45d07b5c1aa6d7d9ef46cd1b990dc308e494089ce517291bd6a3d99ba37c97b6",
        "summary.json":
            "b67c4d7eec29d2eb464efdbb3f874026fa2b3b3ea51f6b275e8f0649a521e49e",
    },
    "fit_success-json": {
        "summary.json":
            "9f4b2cabf8e19876437a75d29ed9f5171eae7498fcb7bfe608b8081593c1dffd",
    },
    "fit_success_defaults-csv": {
        "success_bins.csv":
            "63a263cc19945272d77df73601eb73aebc34a195399583fc7d1b06d04ebc99e5",
        "summary.json":
            "ed7afc8114f7206ca28b1f66bb6f702159461e2ae1f6d9d595fcadd3281213ba",
    },
    "fit_success_defaults-json": {
        "summary.json":
            "b751cc2f21432b0673ff744ee75acb4f07651c0a90d588ab49789a037d8fdc16",
    },
    "significance-csv": {
        "significance.csv":
            "08336f63f05e1a60eedfa827b228ce760ac5af8288b16a492a4e393f8a8bfa44",
        "summary.json":
            "2d9afc6e8dd499695530422358cd9023ce50145210303884ed223cd68e94c7fb",
    },
    "significance-json": {
        "summary.json":
            "9c376240d6d054e2c78502794e17edef3e73b12b1c4aed8cbcf857e101279776",
    },
}


def _digests(name: str, fmt: str, work: Path) -> dict[str, str]:
    command, config, extra = CASES[name]
    inputs = _write_inputs(work)
    argv = [arg.format(**inputs) for arg in command]
    if config is not None:
        if config.endswith(".ini"):
            path = CONFIGS / config
        else:
            path = work / "config.ini"
            path.write_text(config)
        argv += ["--config", str(path)]
    out = work / "out"
    assert main([*argv, "--format", fmt, *extra, "--out", str(out)]) == 0
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

    unchanged = 0
    for name in CASES:
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as work:
                digests = _digests(name, fmt, Path(work))
            if digests == GOLDEN.get(f"{name}-{fmt}"):
                unchanged += 1
                continue
            print(f'    "{name}-{fmt}": {{')
            for file, digest in digests.items():
                print(f'        "{file}":\n            "{digest}",')
            print("    },")
    print(f"# {unchanged} entries unchanged")
