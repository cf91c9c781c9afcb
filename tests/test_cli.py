import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from frontpage import FixedThreshold, StoryConfig, VoteModelParams, cli
from frontpage.cli import (
    ConfigError,
    InputError,
    expand_sweeps,
    ingest_traces,
    load_config,
    main,
    parse_sweeps,
)
from frontpage.fitting import ComparisonReport, compare_model_to_trace
from frontpage.vote_dynamics import integrate_votes


def write_ini(path, sections):
    lines = []
    for name, mapping in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in mapping.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


@pytest.fixture
def votes_ini(tmp_path):
    return write_ini(
        tmp_path / "votes.ini",
        {
            "vote": {"sm_alpha": "0.0", "sm_beta": "0.0"},
            "story": {"interestingness_r": "0.5", "submitter_network_S": "80"},
            "policy": {"kind": "fixed", "h": "40"},
            "run": {"horizon_minutes": "1440"},
        },
    )


class TestSimulateVotes:
    def test_single_run_outputs(self, votes_ini, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "votes", "--config", str(votes_ini), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "votes.csv").read_text().splitlines()
        assert lines[0] == "t,m"
        assert lines[1] == "0.0,1.0"
        assert len(lines) == 1442  # header + 1441 grid points
        summary = json.loads((out / "summary.json").read_text())
        result = summary["results"][0]
        assert result["params"]["vote"]["c"] == 0.3
        assert result["params"]["story"]["submitter_network_S"] == 80
        assert result["promotion_time_Th"] == 657.0
        assert summary["tool_version"]

    def test_sweep_cross_product(self, votes_ini, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "simulate",
                "votes",
                "--config",
                str(votes_ini),
                "--out",
                str(out),
                "--sweep",
                "story.interestingness_r=0.1,0.5,0.9",
                "--sweep",
                "story.submitter_network_S=0,80,400",
            ]
        )
        assert code == 0
        csvs = sorted(p.name for p in out.glob("votes_*.csv"))
        assert len(csvs) == 9
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["results"]) == 9
        promoted = {
            (r["overrides"]["story.interestingness_r"],
             r["overrides"]["story.submitter_network_S"]): r["promotion_time_Th"]
            for r in summary["results"]
        }
        assert promoted[("0.1", "0")] is None
        assert promoted[("0.1", "80")] is None
        assert promoted[("0.1", "400")] is not None
        assert promoted[("0.9", "80")] < promoted[("0.5", "80")]

    def test_json_format_embeds_trajectory(self, votes_ini, tmp_path):
        out = tmp_path / "json_out"
        code = main(
            [
                "simulate",
                "votes",
                "--config",
                str(votes_ini),
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        assert list(out.iterdir()) == [out / "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        trajectory = summary["results"][0]["trajectory"]
        assert trajectory["t"][0] == 0.0
        assert trajectory["m"][0] == 1.0
        assert len(trajectory["m"]) == 1441

    @pytest.mark.parametrize(
        "section, key, bound",
        [
            ("story", "submitter_network_S", "an integer >= 0"),
            ("policy", "h", "an integer >= 2"),
        ],
    )
    def test_integer_past_float_range_names_its_key(
        self, section, key, bound, votes_ini, tmp_path, capsys
    ):
        huge = "1" + "0" * 400
        sections = load_config(votes_ini)[0]
        sections[section][key] = huge
        ini = write_ini(tmp_path / "huge.ini", sections)
        out = tmp_path / "out"
        assert main(["simulate", "votes", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [{section}] {key} must be {bound}, got {huge}\n"
        )
        assert not out.exists()


class TestPolicyKind:
    MESSAGE = (
        "error: [policy] kind must be 'fixed' or 'network_proportional', "
        "got 'bogus'\n"
    )

    def _only_kind(self, votes_ini, tmp_path):
        sections = load_config(votes_ini)[0]
        sections["policy"] = {"kind": "fixed"}
        return write_ini(tmp_path / "kind.ini", sections)

    def test_an_unknown_kind_in_the_config_exits_two(self, votes_ini, tmp_path, capsys):
        sections = load_config(votes_ini)[0]
        sections["policy"] = {"kind": "bogus"}
        ini = write_ini(tmp_path / "bogus.ini", sections)
        out = tmp_path / "out"
        assert main(["simulate", "votes", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err == self.MESSAGE
        assert not out.exists()

    def test_an_unknown_swept_kind_exits_two(self, votes_ini, tmp_path, capsys):
        ini, out = self._only_kind(votes_ini, tmp_path), tmp_path / "out"
        code = main(["simulate", "votes", "--config", str(ini), "--out", str(out),
                     "--sweep", "policy.kind=fixed,bogus"])
        assert code == 2
        assert capsys.readouterr().err == self.MESSAGE
        assert not out.exists()

    def test_each_swept_kind_writes_its_own_params(self, votes_ini, tmp_path):
        ini, out = self._only_kind(votes_ini, tmp_path), tmp_path / "out"
        code = main(["simulate", "votes", "--config", str(ini), "--out", str(out),
                     "--sweep", "policy.kind=fixed,network_proportional"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [result["params"]["policy"] for result in summary["results"]] == [
            {"h": 40, "kind": "fixed"},
            {"factor": 1.5, "kind": "network_proportional"},
        ]


class TestSimulateRank:
    def test_rank_csv_and_unranked_user(self, tmp_path):
        ini = write_ini(
            tmp_path / "rank.ini",
            {
                "user": {
                    "front_page_F": "0.0",
                    "network_S": "50.0",
                    "submission_rate_M": "0.0",
                },
                "run": {"weeks": "3"},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "rank", "--config", str(ini), "--out", str(out)]) == 0
        lines = (out / "rank.csv").read_text().splitlines()
        assert lines[0] == "week,F,S,rank_proxy"
        # F stays 0 with no submissions and no front-page stock: unranked
        assert lines[1] == "0.0,0.0,50.0,"
        assert lines[-1].startswith("3.0,0.0,50.0,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"][0]["final_rank_proxy"] is None

    def test_weeks_past_the_cap_is_config_error(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "rank.ini",
            {
                "user": {
                    "front_page_F": "5.0",
                    "network_S": "100.0",
                    "submission_rate_M": "10.0",
                },
                "run": {"weeks": "1000000000000000"},
            },
        )
        out = tmp_path / "out"
        code = main(["simulate", "rank", "--config", str(ini), "--out", str(out)])
        assert code == 2
        assert "weeks must be an integer in [1, 1000000]" in capsys.readouterr().err
        assert not out.exists()

    def test_active_user_with_kappa(self, tmp_path):
        ini = write_ini(
            tmp_path / "rank.ini",
            {
                "user": {
                    "front_page_F": "5.0",
                    "network_S": "100.0",
                    "submission_rate_M": "10.0",
                },
                "run": {"weeks": "25", "rank_kappa": "1000.0"},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "rank", "--config", str(ini), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        result = summary["results"][0]
        assert result["final_front_page_F"] > 5.0
        assert result["final_rank_proxy"] == pytest.approx(
            1000.0 / result["final_front_page_F"]
        )


class TestEnsembleCommand:
    def _ini(self, tmp_path, **ensemble_keys):
        section = {"runs": "25", "seed": "3", **ensemble_keys}
        return write_ini(
            tmp_path / "ens.ini",
            {
                "vote": {"sm_alpha": "0.0", "sm_beta": "0.0"},
                "story": {"interestingness_r": "0.5"},
                "policy": {"h": "1000"},
                "ensemble": {k: str(v) for k, v in section.items()},
                "run": {"horizon_minutes": "240"},
            },
        )

    def test_summary_statistics(self, tmp_path):
        ini = self._ini(tmp_path)
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(ini), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        result = summary["results"][0]
        assert result["params"]["ensemble"]["runs"] == 25
        assert result["promotion_probability"] == 0.0
        assert 10.0 < result["mean_final_votes"] < 35.0
        lines = (out / "ensemble_mean.csv").read_text().splitlines()
        assert lines[0] == "t,m"

    def test_seed_flag_overrides_config(self, tmp_path):
        ini = self._ini(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["ensemble", "--config", str(ini), "--out", str(out_a)]) == 0
        assert (
            main(
                ["ensemble", "--config", str(ini), "--out", str(out_b),
                 "--seed", "99"]
            )
            == 0
        )
        mean_a = json.loads((out_a / "summary.json").read_text())["results"][0]
        mean_b = json.loads((out_b / "summary.json").read_text())["results"][0]
        assert mean_a["params"]["ensemble"]["seed"] == 3
        assert mean_b["params"]["ensemble"]["seed"] == 99
        assert mean_a["mean_final_votes"] != mean_b["mean_final_votes"]

    def test_mean_mode_equals_deterministic_run(self, tmp_path, votes_ini):
        # one run, so the ensemble mean is the trajectory itself, exactly
        ini = self._ini(tmp_path, arrival_mode="mean", runs="1")
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(ini), "--out", str(out)]) == 0
        mean_csv = (out / "ensemble_mean.csv").read_text()
        story = StoryConfig(interestingness_r=0.5, submitter_network_S=0)
        params = VoteModelParams(sm_alpha=0.0, sm_beta=0.0)
        traj = integrate_votes(story, params, FixedThreshold(h=1000), 240.0)
        expected = "t,m\n" + "\n".join(
            f"{float(t)!r},{float(m)!r}" for t, m in zip(traj.times, traj.votes_m)
        ) + "\n"
        assert mean_csv == expected


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        code = main(
            ["simulate", "votes", "--config", str(tmp_path / "nope.ini"),
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_invalid_value_is_config_error(self, tmp_path):
        ini = write_ini(
            tmp_path / "bad.ini",
            {"vote": {"c_u": "1.5"}, "story": {"interestingness_r": "0.5"}},
        )
        assert main(
            ["simulate", "votes", "--config", str(ini), "--out", str(tmp_path / "o")]
        ) == 2

    @pytest.mark.parametrize("command", ["votes", "rank"])
    def test_bad_schedule_entries_are_config_errors(self, tmp_path, capsys, command):
        ini = write_ini(
            tmp_path / "bad.ini",
            {
                "story": {"interestingness_r": "0.5"},
                "user": {"front_page_F": "5", "network_S": "50",
                         "submission_rate_M": "2"},
                "run": {"weeks": "3", "M_schedule": "-5, nan, 2"},
            },
        )
        out = tmp_path / "out"
        code = main(["simulate", command, "--config", str(ini), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: [run] M_schedule entry 1 must be finite and >= 0, got -5.0; "
            "M_schedule entry 2 must be finite and >= 0, got nan\n"
        )
        assert not out.exists()

    def test_unknown_section_is_config_error(self, tmp_path):
        ini = write_ini(
            tmp_path / "bad.ini",
            {"votes": {"c": "0.3"}, "story": {"interestingness_r": "0.5"}},
        )
        assert main(
            ["simulate", "votes", "--config", str(ini), "--out", str(tmp_path / "o")]
        ) == 2

    def test_empty_sweep_is_config_error(self, votes_ini, tmp_path):
        code = main(
            [
                "simulate", "votes", "--config", str(votes_ini),
                "--out", str(tmp_path / "o"),
                "--sweep", "story.interestingness_r=",
            ]
        )
        assert code == 2

    def test_unqualified_sweep_key_is_config_error(self, votes_ini, tmp_path):
        code = main(
            [
                "simulate", "votes", "--config", str(votes_ini),
                "--out", str(tmp_path / "o"),
                "--sweep", "interestingness_r=0.1,0.2",
            ]
        )
        assert code == 2

    def test_missing_input_is_input_error(self, tmp_path):
        code = main(
            ["fit", "linear", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
        )
        assert code == 3

    def test_unwritable_output(self, votes_ini, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(
            ["simulate", "votes", "--config", str(votes_ini), "--out", str(blocker)]
        )
        assert code == 4

    def test_failed_write_leaves_no_tmp_files(self, votes_ini, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        code = main(
            ["simulate", "votes", "--config", str(votes_ini), "--out", str(out)]
        )
        assert code == 4
        assert f"cannot write {out / 'summary.json'}" in capsys.readouterr().err
        # no .tmp left, and no votes.csv written beside the directory
        assert sorted(f.name for f in out.iterdir()) == ["summary.json"]

    def test_render_error_leaves_outputs_unchanged(
        self, votes_ini, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        argv = ["simulate", "votes", "--config", str(votes_ini), "--out", str(out)]
        assert main(argv) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}

        def render_then_fail(stream, doc):
            stream.write("{\n")
            raise RuntimeError("render failed")

        # votes.csv renders in full before summary.json fails part-way
        monkeypatch.setattr(cli, "_write_json", render_then_fail)
        other = write_ini(
            tmp_path / "other.ini", {"story": {"interestingness_r": "0.9"}}
        )
        with pytest.raises(RuntimeError, match="render failed"):
            main(["simulate", "votes", "--config", str(other), "--out", str(out)])
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_bad_usage_exits_two(self, tmp_path, capsys):
        users = str(tmp_path / "users.csv")
        trace = str(tmp_path / "trace.csv")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "sideways"])
        assert exc.value.code == 2
        success, log = "frontpage fit success: error: ", "frontpage fit log: error: "
        for argv, line in (
            (["fit", "success", users, "--bins", "0"],
             success + "argument --bins: must be an integer in [1, 100000], got 0"),
            (["fit", "success", users, "--bins", "many"],
             success + "argument --bins: invalid int value: 'many'"),
            (["fit", "success", users, "--bins", "100001"],
             success + "argument --bins: must be an integer in [1, 100000], got 100001"),
            (["fit", "success", users, "--bins", "2.0"],
             success + "argument --bins: invalid int value: '2.0'"),
            (["fit", "success", users, "--min-submissions", "0"],
             success + "argument --min-submissions: must be an integer >= 1, got 0"),
            (["fit", "log", trace, "--log-base", "1"],
             log + "argument --log-base: must be positive and != 1, got 1.0"),
            (["fit", "log", trace, "--log-base", "nan"],
             log + "argument --log-base: must be positive and != 1, got nan"),
            (["fit", "log", trace, "--log-base", "-2"],
             log + "argument --log-base: must be positive and != 1, got -2.0"),
            (["fit", "log", trace, "--log-base", "e"],
             log + "argument --log-base: invalid float value: 'e'"),
        ):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert capsys.readouterr().err.splitlines()[-1] == line

    def test_vote_threshold_h_is_rejected(self, tmp_path, capsys):
        # promotion reads [policy] h only; [vote] threshold_h is not a key
        ini = write_ini(
            tmp_path / "th.ini",
            {"vote": {"threshold_h": "500"}, "story": {"interestingness_r": "0.5"}},
        )
        code = main(
            ["simulate", "votes", "--config", str(ini), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "threshold_h" in capsys.readouterr().err

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize(
        "sweeps",
        [
            ["story.interestingness_r=0.1,0.9", "story.interestingness_r=0.5"],
            ["story.interestingness_r=0.5,0.5"],
        ],
        ids=["repeated-key", "repeated-value"],
    )
    def test_sweep_collision_is_config_error(
        self, votes_ini, tmp_path, sweeps, output_format
    ):
        out = tmp_path / "o"
        argv = [
            "simulate", "votes", "--config", str(votes_ini),
            "--out", str(out), "--format", output_format,
        ]
        for spec in sweeps:
            argv += ["--sweep", spec]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate votes", "ensemble", "compare"])
    def test_fractional_horizon_is_config_error(self, tmp_path, command, capsys):
        ini = write_ini(
            tmp_path / "h.ini",
            {
                "story": {"interestingness_r": "0.5"},
                "ensemble": {"runs": "2"},
                "run": {"horizon_minutes": "2880.5"},
            },
        )
        trace = tmp_path / "trace.csv"
        trace.write_text("id,t,value\na,0,1.0\n")
        argv = command.split()
        if command == "compare":
            argv.append(str(trace))
        argv += ["--config", str(ini), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "whole number of dt" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["5e-324", "1e-300"])
    @pytest.mark.parametrize("command", ["simulate votes", "ensemble"])
    def test_too_many_steps_is_config_error(self, tmp_path, command, dt, capsys):
        ini = write_ini(
            tmp_path / "tiny.ini",
            {
                "vote": {"dt": dt},
                "story": {"interestingness_r": "0.5"},
                "run": {"horizon_minutes": "60"},
            },
        )
        argv = [*command.split(), "--config", str(ini), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "more than 1000000 steps" in capsys.readouterr().err

    def test_rate_too_large_to_draw_is_config_error(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "big.ini",
            {
                "vote": {"visit_rate_N": "1e300"},
                "story": {"interestingness_r": "0.5"},
                "ensemble": {"runs": "2", "seed": "1"},
                "run": {"horizon_minutes": "10"},
            },
        )
        out = tmp_path / "o"
        assert main(["ensemble", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not out.exists()

    def test_mean_too_large_to_draw_names_the_step(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "big.ini",
            {
                "story": {"interestingness_r": "1", "submitter_network_S": "0"},
                "vote": {"visit_rate_N": "1e300", "sm_alpha": "0", "sm_beta": "0"},
                "run": {"horizon_minutes": "30"},
            },
        )
        out = tmp_path / "o"
        argv = ["simulate", "votes", "--config", str(ini), "--out", str(out)]
        assert main(argv) == 0  # the mean field draws nothing
        capsys.readouterr()
        out = tmp_path / "e"
        assert main(["ensemble", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config: step 1: Poisson mean 2.8935759915606352e+299 "
            "is too large to draw\n"
        )
        assert not out.exists()

    def test_overflowing_votes_name_the_sweep_point(self, votes_ini, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [
            "simulate", "votes", "--config", str(votes_ini), "--out", str(out),
            "--sweep", "vote.visit_rate_N=10,1e307",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "vote.visit_rate_N=1e307" in err
        assert "vote count is inf" in err
        assert not out.exists()

    def test_compare_with_overflowing_votes_is_config_error(
        self, votes_ini, tmp_path, capsys
    ):
        ini = votes_ini.read_text().replace("[vote]", "[vote]\nvisit_rate_N = 1e307")
        votes_ini.write_text(ini)
        trace = tmp_path / "trace.csv"
        trace.write_text("id,t,value\na,0,1\na,60,5\n")
        out = tmp_path / "o"
        argv = ["compare", str(trace), "--config", str(votes_ini), "--out", str(out)]
        assert main(argv) == 2
        assert "vote count is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_rank_model_names_the_week(self, tmp_path, capsys):
        # the committed config, run for two weeks of 1e308 submissions each
        ini = write_ini(
            tmp_path / "rank.ini",
            {
                "rank": {"a": "0.03", "b": "1.0", "c_success": "0.002"},
                "user": {"front_page_F": "5", "network_S": "50",
                         "submission_rate_M": "2.0"},
                "run": {"weeks": "2", "rank_kappa": "1000.0",
                        "M_schedule": "1e308, 1e308"},
            },
        )
        out = tmp_path / "o"
        assert main(["simulate", "rank", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config: week 2: front_page_F is inf and network_S is inf: "
            "the rank model overflows floating point\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"rank": {"dt_weeks": "1e308"}, "run": {"weeks": "2"}},
             "week column: weeks (2) * dt_weeks (1e+308) overflows floating point"),
            ({"user": {"front_page_F": "1e-320"}, "run": {"rank_kappa": "1e300"}},
             "rank_proxy column: kappa (1e+300) / front_page_F (1e-320) "
             "overflows floating point"),
        ],
        ids=["week", "rank_proxy"],
    )
    def test_overflowing_rank_column_names_its_inputs(
        self, tmp_path, capsys, changes, message, fmt
    ):
        sections = {
            "rank": {},
            "user": {"front_page_F": "5", "network_S": "50",
                     "submission_rate_M": "2.0"},
            "run": {},
        }
        for name, keys in changes.items():
            sections[name].update(keys)
        ini = write_ini(tmp_path / "rank.ini", sections)
        out = tmp_path / "o"
        argv = ["simulate", "rank", "--config", str(ini), "--out", str(out)]
        assert main([*argv, "--format", fmt]) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,header,rows",
        [
            ("fit linear", "id,t,value", ["a,1,1e300", "a,2,3", "a,3,1e308"]),
            ("fit log", "id,t,value", ["a,1,1e300", "a,2,3", "a,3,1e308"]),
            ("compare", "id,t,value", ["a,1,1e300", "a,2,3"]),
            ("compare", "id,t,value", ["a,1,2", "a,3,5e-324"]),  # model/trace ratio
            (
                "fit success",
                "id,submissions,front_page_F,network_S",
                ["u,100,1,1e308", "v,100,2,0", "w,100,3,1.7e308"],
            ),
        ],
    )
    def test_float_overflow_in_a_fit_is_input_error(
        self, command, header, rows, votes_ini, tmp_path, capsys
    ):
        data = tmp_path / "data.csv"
        data.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "o"
        argv = [*command.split(), str(data), "--out", str(out)]
        if command == "compare":
            argv += ["--config", str(votes_ini)]
        if command == "fit success":
            argv += ["--min-submissions", "1"]
        assert main(argv) == 3
        assert "overflow encountered" in capsys.readouterr().err
        assert not out.exists()


class TestTraceIngestion:
    def test_well_formed_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("id,t,value\nb,0,1.5\na,0,1.0\n\nb,2,1.5\na,5,2.0\n")
        grouped = ingest_traces(path)
        assert list(grouped) == ["b", "a"]  # first-appearance order
        np.testing.assert_array_equal(grouped["a"][0], [0.0, 5.0])
        np.testing.assert_array_equal(grouped["a"][1], [1.0, 2.0])
        np.testing.assert_array_equal(grouped["b"][0], [0.0, 2.0])
        np.testing.assert_array_equal(grouped["b"][1], [1.5, 1.5])

    def test_backwards_time_names_the_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "id,t,value\n"
            "a,0,1.0\n"
            "a,5,2.0\n"
            "a,9,2.5\n"
            "b,0,1.0\n"
            "b,3,1.5\n"
            "a,7,3.0\n"  # line 7: went back from t=9
        )
        with pytest.raises(InputError, match="line 7"):
            ingest_traces(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("story,minute,votes\na,0,1\n")
        with pytest.raises(InputError, match="header"):
            ingest_traces(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("id,t,value\n")
        with pytest.raises(InputError, match="no data"):
            ingest_traces(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("id,t,value\na,soon,1.0\n")
        with pytest.raises(InputError, match="line 2"):
            ingest_traces(path)

    def test_wrong_field_count_is_reported_before_a_bad_value(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("id,t,value\na,soon,1.0\na,1,2.0\na,2\n")
        with pytest.raises(InputError, match="line 4: expected 3 fields"):
            ingest_traces(path)

    def test_oversized_field_names_the_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("id,t,value\na,1,2\na,2," + "9" * 200_000 + "\n")
        with pytest.raises(InputError, match="line 3: field larger than field limit"):
            ingest_traces(path)

    def test_non_utf8_input_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,t,value\na,1,\xff\n")
        code = main(["fit", "linear", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.csv: not UTF-8 text" in err
        assert not (tmp_path / "o").exists()


class TestCompare:
    def _model(self):
        story = StoryConfig(interestingness_r=0.5, submitter_network_S=80)
        params = VoteModelParams(sm_alpha=0.0, sm_beta=0.0)
        return integrate_votes(story, params, FixedThreshold(h=40), 1440.0)

    def test_identical_trace_has_zero_rms(self):
        traj = self._model()
        idx = np.arange(0, 1441, 60)
        report = compare_model_to_trace(
            traj.times[idx], traj.votes_m[idx], traj, threshold=40.0
        )
        assert isinstance(report, ComparisonReport)
        assert report.rms_error == 0.0
        assert report.final_value_ratio == 1.0
        assert report.promotion_time_model == traj.promotion_time_Th

    def test_constant_offset_gives_that_rms(self):
        traj = self._model()
        idx = np.arange(0, 1441, 60)
        report = compare_model_to_trace(
            traj.times[idx], traj.votes_m[idx] + 5.0, traj, threshold=40.0
        )
        assert report.rms_error == pytest.approx(5.0)

    def test_promotion_time_difference(self):
        traj = self._model()
        # a trace that crosses the threshold earlier than the model does
        trace_t = np.array([0.0, 100.0, 200.0, 700.0])
        trace_v = np.array([1.0, 20.0, 45.0, 60.0])
        report = compare_model_to_trace(trace_t, trace_v, traj, threshold=40.0)
        assert report.promotion_time_trace == 200.0
        assert report.promotion_time_difference == pytest.approx(
            traj.promotion_time_Th - 200.0
        )

    def test_the_trace_promotes_at_its_stamp_past_the_horizon(self):
        traj = self._model()  # 1,440 minutes
        # the trace first reaches the bar after the model's horizon: the
        # overlap leaves that stamp out, the trace's promotion does not
        trace_t = np.array([0.0, 600.0, 2000.0])
        trace_v = np.array([1.0, 20.0, 45.0])
        report = compare_model_to_trace(trace_t, trace_v, traj, threshold=40.0)
        assert report.n_overlap == 2
        assert report.promotion_time_trace == 2000.0

    def test_no_overlap_is_rejected(self):
        traj = self._model()
        with pytest.raises(ValueError, match="overlap"):
            compare_model_to_trace(
                np.array([2000.0, 3000.0]), np.array([1.0, 2.0]), traj, 40.0
            )

    def test_cli_no_overlap_exit_code(self, votes_ini, tmp_path):
        trace = tmp_path / "late.csv"
        trace.write_text("id,t,value\na,9000,5.0\n")
        code = main(
            ["compare", str(trace), "--config", str(votes_ini),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_cli_compare_outputs(self, votes_ini, tmp_path):
        traj = self._model()
        idx = np.arange(0, 1441, 120)
        trace = tmp_path / "trace.csv"
        rows = "\n".join(
            f"s1,{float(traj.times[i])!r},{float(traj.votes_m[i])!r}" for i in idx
        )
        trace.write_text("id,t,value\n" + rows + "\n")
        out = tmp_path / "out"
        code = main(
            ["compare", str(trace), "--config", str(votes_ini), "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"][0]["rms_error"] == 0.0


_USERS_HEADER = "id,submissions,front_page_F,network_S"
_F_RULE = "front_page_F must be in [0, submissions]"


class TestFitCommands:
    def test_recover_interestingness_from_synthetic_trace(self, tmp_path):
        # With a large submitter network and a dead queue tail, the
        # pre-promotion slope is r*S/1440: fit it and solve for r.
        r_true, network = 0.35, 400
        story = StoryConfig(interestingness_r=r_true, submitter_network_S=network)
        params = VoteModelParams(sm_alpha=0.0, sm_beta=0.0)
        traj = integrate_votes(story, params, FixedThreshold(h=100_000), 1440.0)
        times = np.arange(200.0, 1401.0, 100.0)
        values = np.interp(times, traj.times, traj.votes_m)
        trace = tmp_path / "synthetic.csv"
        trace.write_text(
            "id,t,value\n"
            + "\n".join(
                f"s,{float(t)!r},{float(v)!r}" for t, v in zip(times, values)
            )
            + "\n"
        )
        out = tmp_path / "out"
        assert main(["fit", "linear", str(trace), "--out", str(out)]) == 0
        fit = json.loads((out / "summary.json").read_text())["results"][0]
        recovered = fit["slope"] * 1440.0 / network
        assert recovered == pytest.approx(r_true, rel=0.05)

    def test_fit_log_cli(self, tmp_path):
        m = np.array([1.0, 10.0, 100.0, 1000.0])
        y = 112.0 * np.log(m) + 47.0
        trace = tmp_path / "sm.csv"
        trace.write_text(
            "id,t,value\n"
            + "\n".join(f"law,{float(a)!r},{float(b)!r}" for a, b in zip(m, y))
            + "\n"
        )
        out = tmp_path / "out"
        assert main(["fit", "log", str(trace), "--out", str(out)]) == 0
        result = json.loads((out / "summary.json").read_text())["results"][0]
        assert result["alpha"] == pytest.approx(112.0, rel=1e-9)
        assert result["beta"] == pytest.approx(47.0, rel=1e-9)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["options"] == {"log_base": math.e}

    def test_fit_success_cli(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = ["id,submissions,front_page_F,network_S"]
        for i in range(120):
            network = int(rng.integers(0, 401))
            submissions = int(rng.integers(50, 150))
            promoted = int(rng.binomial(submissions, min(1.0, 0.002 * network)))
            rows.append(f"u{i},{submissions},{promoted},{network}")
        users = tmp_path / "users.csv"
        users.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["fit", "success", str(users), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["options"] == {"bins": 10, "min_submissions": 50}
        assert summary["results"][0]["fit"]["slope"] == pytest.approx(0.002, rel=0.25)
        bins_csv = (out / "success_bins.csv").read_text().splitlines()
        assert bins_csv[0] == "bin_center_S,mean_success,stderr,count"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["u,0,5,-1"], "user 0: submissions must be > 0, got 0.0"),
            (["u,10,20,-1"], f"user 0: {_F_RULE}, got 20.0"),
            (["u,60,3,-1", "v,0,0,5"], "user 0: network_S must be >= 0, got -1.0"),
            (["u,60,3,5", "v,60,61,5"], f"user 1: {_F_RULE}, got 61.0"),
            (["u,nan,0,5"], "user 0: submissions must be > 0, got nan"),
            (["u,inf,0,5"], "user 0: submissions must be > 0, got inf"),
            (["u,60,nan,5"], f"user 0: {_F_RULE}, got nan"),
            (["u,60,inf,5"], f"user 0: {_F_RULE}, got inf"),
            (["u,60,3,nan"], "user 0: network_S must be >= 0, got nan"),
            (["u,60,3,inf"], "user 0: network_S must be >= 0, got inf"),
        ],
    )
    def test_fit_success_names_the_first_bad_user(self, rows, message, tmp_path, capsys):
        # each user's first broken rule, in the order submissions, F, S
        users = tmp_path / "users.csv"
        users.write_text("\n".join([_USERS_HEADER, *rows]) + "\n")
        out = tmp_path / "o"
        assert main(["fit", "success", str(users), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {users}: {message}\n"
        assert not out.exists()


class TestSignificanceCommand:
    def test_reports_both_interpretations(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "id,pool_N,sample_n,group_K,overlap_k\n"
            "s1,15742,215,120,4\n"
            "s2,15742,215,40,0\n"
        )
        out = tmp_path / "out"
        assert main(["significance", str(obs), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        by_id = {r["id"]: r for r in summary["results"]}
        assert 0.0 < by_id["s1"]["exact_k"] < by_id["s1"]["tail_at_least_k"]
        assert by_id["s2"]["tail_at_least_k"] == 1.0
        assert "mean_exact_k" in summary

    def test_invalid_observation_names_line(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "id,pool_N,sample_n,group_K,overlap_k\n"
            "s1,100,10,5,6\n"  # overlap exceeds both n and K
        )
        code = main(["significance", str(obs), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_integral_float_cells_read_as_ints(self, tmp_path):
        outputs = []
        for row in ("s1,100,10,20,3", "s1,100.0,1e1,20.0,3.0"):
            obs = tmp_path / "obs.csv"
            obs.write_text(f"id,pool_N,sample_n,group_K,overlap_k\n{row}\n")
            out = tmp_path / "o"
            assert main(["significance", str(obs), "--out", str(out)]) == 0
            outputs.append((out / "significance.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s1,abc,10,5,2", "pool_N: cannot parse 'abc' as int"),
            ("s1,100,10.5,5,2", "sample_n: cannot parse '10.5' as int"),
            ("s1,100,10,,2", "group_K: cannot parse '' as int"),
            ("s1,100,10,5,-1", "overlap_k must be an integer >= 0, got -1"),
        ],
    )
    def test_bad_cell_names_line_and_key(self, tmp_path, capsys, row, message):
        obs = tmp_path / "obs.csv"
        obs.write_text(f"id,pool_N,sample_n,group_K,overlap_k\n{row}\n")
        assert main(["significance", str(obs), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {obs}: line 2: {message}\n"

    def test_count_past_float_range_is_input_error(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        obs = tmp_path / "obs.csv"
        obs.write_text(f"id,pool_N,sample_n,group_K,overlap_k\ns1,{huge},10,5,2\n")
        out = tmp_path / "o"
        assert main(["significance", str(obs), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {obs}: line 2: pool_N must be an integer >= 1, got {huge}\n"
        )
        assert not out.exists()

    def test_long_unparseable_cell_is_cut_in_the_message(self, tmp_path, capsys):
        obs = tmp_path / "o.csv"
        obs.write_text(f"id,pool_N,sample_n,group_K,overlap_k\ns1,{'9' * 5000},10,5,2\n")
        assert main(["significance", str(obs), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: {obs}: line 2: pool_N: cannot parse "
            f"'{'9' * 40}…' (5000 characters) as int\n"
        )
        assert len(err) - len(str(obs)) < 200


def test_long_unparseable_trace_cells_are_cut_in_the_message(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text(f"id,t,value\na,0,1\na,{'x' * 5000},{'y' * 300}\n")
    assert main(["fit", "linear", str(trace), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"error: {trace}: line 3: t and value must be numbers, got "
        f"'{'x' * 40}…' (5000 characters), '{'y' * 40}…' (300 characters)\n"
    )
    assert len(err.encode()) - len(str(trace).encode()) < 200


@pytest.mark.parametrize(
    "rows, message",
    [
        # ingest_traces: time goes backwards within the id
        ("{id},2,1\n{id},1,3\n", "line 3: time goes backwards for id "),
        # _per_id: the id's one point cannot be fitted
        ("{id},1,2\n", "id "),
    ],
    ids=["time-backwards", "fit-fails"],
)
def test_long_id_is_cut_in_the_message(tmp_path, capsys, rows, message):
    long_id = "i" * 5000
    trace = tmp_path / "t.csv"
    trace.write_text("id,t,value\n" + rows.format(id=long_id))
    assert main(["fit", "linear", str(trace), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert message + f"'{'i' * 40}…' (5000 characters)" in err
    assert len(err.encode()) - len(str(trace).encode()) < 200


# Ids that need RFC 4180 quoting in a CSV cell: comma, quote, newline.
AWKWARD_IDS = ["a,b", 'say "hi"', "two\nlines", 'all,"of\nthem"']


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as stream:
        csv.writer(stream).writerows(rows)


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as stream:
        return list(csv.reader(stream))


class TestCsvQuoting:
    @pytest.mark.parametrize("argv, table", [
        (["fit", "linear"], "fits.csv"),
        (["compare"], "compare.csv"),
    ])
    def test_trace_ids_read_back(self, argv, table, votes_ini, tmp_path):
        trace = tmp_path / "trace.csv"
        _write_rows(trace, [("id", "t", "value")] + [
            (sid, t, 1.0 + t * (i + 1)) for i, sid in enumerate(AWKWARD_IDS)
            for t in (0.0, 60.0, 120.0)
        ])
        out = tmp_path / "out"
        extra = ["--config", str(votes_ini)] if argv == ["compare"] else []
        assert main([*argv, str(trace), *extra, "--out", str(out)]) == 0
        header, *rows = _read_rows(out / table)
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == AWKWARD_IDS

    def test_observation_ids_read_back(self, tmp_path):
        obs = tmp_path / "obs.csv"
        _write_rows(obs, [("id", "pool_N", "sample_n", "group_K", "overlap_k")] + [
            (sid, 15742, 215, 120, 4) for sid in AWKWARD_IDS
        ])
        out = tmp_path / "out"
        assert main(["significance", str(obs), "--out", str(out)]) == 0
        header, *rows = _read_rows(out / "significance.csv")
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == AWKWARD_IDS

    def test_only_cells_that_need_it_are_quoted(self):
        assert cli._fmt("plain id") == "plain id"
        assert cli._fmt("a,b") == '"a,b"'
        assert cli._fmt('say "hi"') == '"say ""hi"""'
        assert cli._fmt("a\rb") == '"a\rb"'
        assert cli._fmt("a\nb") == '"a\nb"'


def test_sweep_parsing_helpers():
    parsed = parse_sweeps(["story.interestingness_r=0.1,0.2"])
    assert parsed == [("story", "interestingness_r", ["0.1", "0.2"])]
    with pytest.raises(ConfigError, match="already swept"):
        parse_sweeps(["story.interestingness_r=0.1", "story.interestingness_r=0.2"])
    # "/" is written as "-" in output names, so these two would share a file
    with pytest.raises(ConfigError, match="output name"):
        expand_sweeps({}, [("ensemble", "arrival_mode", ["a/b", "a-b"])])


def test_oversized_sweep_is_rejected_before_expanding(
    votes_ini, tmp_path, capsys, monkeypatch
):
    def no_point(overrides):
        raise AssertionError("the grid was expanded")

    monkeypatch.setattr(cli, "_suffix_for", no_point)
    values = ",".join(str(i) for i in range(30))
    out = tmp_path / "o"
    argv = ["simulate", "votes", "--config", str(votes_ini), "--out", str(out)]
    for key in ("story.submitter_network_S", "policy.h", "vote.c"):
        argv += ["--sweep", f"{key}={values}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: sweep: the grid has 27000 points, more than 10000\n"
    assert not out.exists()
    bound = [("story", "submitter_network_S", [str(i) for i in range(10_000)])]
    monkeypatch.undo()
    assert len(expand_sweeps({}, bound)) == cli._MAX_SWEEP_POINTS == 10_000


def test_load_config_comments_and_errors(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("# header\n[vote]\nc = 0.3  # inline\n\nk_u = 0.06\n")
    cfg, records = load_config(path)
    assert cfg == {"vote": {"c": "0.3", "k_u": "0.06"}}
    assert records == {"vote": VoteModelParams(c=0.3, k_u=0.06)}
    path.write_text("[vote]\nc = 0.3\nnot a pair\n")
    with pytest.raises(ConfigError, match=r"line\s+3"):
        load_config(path)


def test_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[run]\nweeks = 3  # \xff\n")
    out = tmp_path / "o"
    assert main(["simulate", "rank", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad.ini: not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,text",
    [
        # configparser would give [user] front_page_F = 5, and the run exit 0
        (["simulate", "rank"],
         "[DEFAULT]\nfront_page_F = 5\n\n[user]\nnetwork_S = 10\n"
         "submission_rate_M = 2\n"),
        # configparser would blame [story] for the key
        (["simulate", "votes"],
         "[DEFAULT]\nfoo = 1\n\n[story]\ninterestingness_r = 0.5\n"),
    ],
    ids=["fills-user", "blames-story"],
)
def test_a_default_section_is_an_unknown_section(command, text, tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config {path}: unknown section(s) DEFAULT; "
        "expected vote, story, policy, rank, user, ensemble, run\n"
    )
    assert not out.exists()


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "argv,text",
    [
        (["simulate", "votes", "--config", "{path}"],
         (_CONFIGS / "votes_baseline.ini").read_text(encoding="utf-8")),
        (["simulate", "rank", "--config", "{path}", "--format", "json"],
         (_CONFIGS / "rank_active_user.ini").read_text(encoding="utf-8")),
        (["fit", "linear", "{path}"], "id,t,value\na,1,2\na,2,3.5\nb,1,1\nb,3,4\n"),
        (["fit", "success", "{path}", "--bins", "2", "--min-submissions", "1"],
         "id,submissions,front_page_F,network_S\n"
         "u,10,1,10\nv,20,4,20\nw,40,9,40\nx,10,3,30\n"),
        (["significance", "{path}"],
         "id,pool_N,sample_n,group_K,overlap_k\no,100,10,20,5\np,50,5,5,1\n"),
    ],
    ids=["config-csv", "config-json", "trace", "users", "observations"],
)
def test_a_leading_byte_order_mark_is_skipped(argv, text, tmp_path):
    outputs = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / name / "input"
        path.parent.mkdir()
        path.write_text(bom + text, encoding="utf-8")
        out = tmp_path / name / "out"
        assert main([*(a.format(path=path) for a in argv), "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


# An option before the name of its command: the message names what is missing.
BEFORE_THE_NAME = [
    (["fit", "--out", "DIR"],
     "frontpage fit: error: argument KIND: required before --out"),
    (["simulate", "--out", "DIR"],
     "frontpage simulate: error: argument WHAT: required before --out"),
    (["fit", "--format", "json", "linear", "t.csv"],
     "frontpage fit: error: argument KIND: required before --format"),
    (["fit", "--through-origin", "linear", "t.csv"],
     "frontpage fit: error: argument KIND: required before --through-origin"),
    (["simulate", "--sweep", "story.h=1", "votes", "--config", "c.ini"],
     "frontpage simulate: error: argument WHAT: required before --sweep"),
    (["--config", "c.ini", "ensemble"],
     "frontpage: error: argument COMMAND: required before --config"),
    # a name that is no command is still an invalid choice
    (["fit", "bogus"],
     "frontpage fit: error: argument KIND: invalid choice: 'bogus' "
     "(choose from 'linear', 'log', 'success')"),
]


class TestNothingGivenIsIgnored:
    """Every config section, sweep key and flag a command accepts is read."""

    @pytest.fixture
    def rank_ini(self, tmp_path):
        return write_ini(
            tmp_path / "rank.ini",
            {"user": {"front_page_F": "5", "network_S": "50",
                      "submission_rate_M": "2"}},
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "linear", "t.csv", "--seed", "3"],
            ["fit", "log", "t.csv", "--bins", "3"],
            ["fit", "success", "u.csv", "--log-base", "2"],
            ["significance", "o.csv", "--config", "c.ini"],
            ["simulate", "votes", "--config", "c.ini", "--seed", "3"],
            ["simulate", "rank", "--config", "c.ini", "--through-origin"],
            ["ensemble", "--config", "c.ini", "--min-submissions", "3"],
            ["compare", "t.csv", "--config", "c.ini", "--sweep", "story.h=1"],
        ],
    )
    def test_a_flag_the_command_does_not_own_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, line",
        BEFORE_THE_NAME,
        ids=[" ".join(argv) for argv, _ in BEFORE_THE_NAME],
    )
    def test_an_option_before_the_command_name_names_what_is_missing(
        self, argv, line, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == line

    @pytest.mark.parametrize(
        "command,spec",
        [
            ("simulate votes", "ensemble.runs=1,2"),
            ("simulate votes", "run.weeks=3,4"),
            ("simulate rank", "vote.c=0.1,0.2"),
        ],
    )
    def test_sweep_over_a_key_the_command_does_not_read(
        self, command, spec, votes_ini, rank_ini, tmp_path, capsys, monkeypatch
    ):
        def no_model(*args, **kwargs):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(cli, "integrate_votes", no_model)
        monkeypatch.setattr(cli, "integrate_rank", no_model)
        ini = votes_ini if command == "simulate votes" else rank_ini
        out = tmp_path / "o"
        argv = [*command.split(), "--config", str(ini), "--sweep", spec]
        assert main([*argv, "--out", str(out)]) == 2
        key = spec.partition("=")[0]
        assert capsys.readouterr().err == (
            f"error: sweep {key}: {command} does not read it\n"
        )
        assert not out.exists()

    def test_seed_flag_and_seed_sweep_conflict(self, tmp_path, capsys):
        ini = TestEnsembleCommand()._ini(tmp_path)
        out = tmp_path / "o"
        argv = ["ensemble", "--config", str(ini), "--seed", "5",
                "--sweep", "ensemble.seed=1,2", "--out", str(out)]
        assert main(argv) == 2
        assert "sweep ensemble.seed: --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        ini = TestEnsembleCommand()._ini(tmp_path)
        out = tmp_path / "o"
        argv = ["ensemble", "--config", str(ini), "--seed", "-3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: [ensemble] seed must be an integer >= 0, got -3\n"
        )
        assert not out.exists()

    def test_seed_past_float_range_exits_two(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        ini = TestEnsembleCommand()._ini(tmp_path, seed=huge)
        out = tmp_path / "o"
        assert main(["ensemble", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [ensemble] seed must be an integer >= 0, got {huge}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "ensemble,message",
        [
            (
                {"runs": "-5"},
                "[ensemble] runs must be an integer in [1, 100000], got -5",
            ),
            ({"bogus": "1"}, "[ensemble] unknown key(s) for EnsembleOptions: bogus"),
            (
                {"runs": "100001"},
                "[ensemble] runs must be an integer in [1, 100000], got 100001",
            ),
        ],
    )
    def test_an_unread_section_is_still_checked(
        self, ensemble, message, votes_ini, tmp_path, capsys
    ):
        ini = write_ini(tmp_path / "v.ini", {**load_config(votes_ini)[0],
                                              "ensemble": ensemble})
        with pytest.raises(ConfigError) as exc:
            load_config(ini)
        assert str(exc.value) == message
        out = tmp_path / "o"
        for argv in (["simulate", "votes"], ["compare", str(tmp_path / "t.csv")]):
            assert main([*argv, "--config", str(ini), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_valid_unread_section_passes(self, votes_ini, tmp_path):
        ini = write_ini(tmp_path / "v.ini", {**load_config(votes_ini)[0],
                                              "ensemble": {"runs": "5"}})
        out = tmp_path / "o"
        assert main(["simulate", "votes", "--config", str(ini), "--out", str(out)]) == 0


# one valid value for one key of each section, and for every [run] key
_SWEEP_VALUES = {
    "vote": {"c": "0.25"},
    "story": {"interestingness_r": "0.4"},
    "policy": {"h": "30"},
    "rank": {"a": "0.05"},
    "user": {"network_S": "40"},
    "ensemble": {"runs": "4"},
    "run": {"horizon_minutes": "90", "weeks": "1", "rank_kappa": "2",
            "M_schedule": "3"},
}


class TestReadsTable:
    """What each model command reads is its row's ``reads`` in
    ``cli._COMMANDS``, and only that."""

    @pytest.fixture
    def every_section_ini(self, tmp_path):
        return write_ini(
            tmp_path / "all.ini",
            {
                "vote": {"sm_alpha": "0.0", "sm_beta": "0.0"},
                "story": {"interestingness_r": "0.5", "submitter_network_S": "80"},
                "policy": {"kind": "fixed", "h": "40"},
                "rank": {"a": "0.03"},
                "user": {"front_page_F": "5", "network_S": "50",
                         "submission_rate_M": "2"},
                "ensemble": {"runs": "3", "seed": "1"},
                "run": {"horizon_minutes": "60", "weeks": "1"},
            },
        )

    @pytest.mark.parametrize(
        "kind,section,key",
        [
            (kind, section, key)
            for kind in ("simulate-votes", "simulate-rank", "ensemble")
            for section in cli._RECORDS
            for key in _SWEEP_VALUES[section]
        ],
    )
    def test_a_sweep_names_only_a_key_the_command_reads(
        self, kind, section, key, every_section_ini, tmp_path, capsys
    ):
        sections, run_keys = cli._COMMANDS[kind].reads
        value = _SWEEP_VALUES[section][key]
        out = tmp_path / "o"
        argv = [*kind.split("-"), "--config", str(every_section_ini),
                "--sweep", f"{section}.{key}={value}", "--out", str(out)]
        if section in sections and (section != "run" or key in run_keys):
            assert main(argv) == 0
            result = json.loads((out / "summary.json").read_text())["results"][0]
            assert result["overrides"] == {f"{section}.{key}": value}
            assert key in result["params"][section]
        else:
            assert main(argv) == 2
            command = kind.replace("-", " ")
            assert capsys.readouterr().err == (
                f"error: sweep {section}.{key}: {command} does not read it\n"
            )
            assert not out.exists()

    def test_params_hold_exactly_what_the_command_reads(
        self, every_section_ini, tmp_path
    ):
        trace = tmp_path / "t.csv"
        trace.write_text("id,t,value\na,0,1\na,30,8\n")
        for kind, row in cli._COMMANDS.items():
            if row.reads is None:
                continue
            sections, run_keys = row.reads
            out = tmp_path / kind
            argv = [*kind.split("-"), "--config", str(every_section_ini)]
            if kind == "compare":
                argv.insert(1, str(trace))
            assert main([*argv, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            params = summary.get("params") or summary["results"][0]["params"]
            assert set(params) == set(sections), kind
            assert set(params["run"]) == set(run_keys), kind

