import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from moralagg import SwfSpec, parse_scenario
from moralagg.cli import approx, main

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"
FROBO = str(FIXTURES / "frobo.scenario")
TIEBREAKER = str(FIXTURES / "tiebreaker.scenario")

BASE = "scenario v1\nactions a b\ntheory t credence 1\n  eval a 1\n  eval b 0\n"


@pytest.fixture
def base_scenario(tmp_path):
    path = tmp_path / "base.scenario"
    path.write_text(BASE)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "moralagg.report/1"
    return payload


class TestApprox:
    def test_six_significant_digits(self):
        assert approx(F(-99, 100)) == "-0.99"
        assert approx(F(1, 3)) == "0.333333"
        assert approx(F(-599, 50)) == "-11.98"


class TestValidate:
    def test_human_output(self, capsys):
        assert main(["validate", FROBO]) == 0
        out = capsys.readouterr().out
        assert "ok: 2 theories over 2 actions" in out
        assert "actions: l r" in out
        assert "theory u credence 99/100 (~= 0.99)" in out

    def test_json_output(self, capsys):
        payload = run_json(capsys, ["validate", FROBO, "--json"])
        assert payload["actions"] == ["l", "r"]
        assert payload["theories"][1] == {
            "id": "d",
            "credence": {"num": 1, "den": 100},
            "evaluations": {
                "l": {"num": -10000, "den": 1},
                "r": {"num": -1000, "den": 1},
            },
        }
        assert payload["default_swf"] is None

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.scenario"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("actions a\ntheory t credence 1/2\n  eval a 0\n")
        assert main(["validate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestRank:
    def test_trimmed_scores(self, capsys):
        code = main(["rank", FROBO, "--swf", "kthm", "--k", "1/10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "swf: kthm(k=1/10, literal)" in out
        assert "l  -99/100 (~= -0.99)" in out
        assert "r  -99/50 (~= -1.98)" in out
        assert "ranking (worst to best): r ≺ l" in out

    def test_json_scores_are_exact_pairs(self, capsys):
        payload = run_json(
            capsys,
            ["rank", FROBO, "--swf", "kthm", "--k", "1/10", "--json"],
        )
        assert payload["scores"] == {
            "l": {"num": -99, "den": 100},
            "r": {"num": -99, "den": 50},
        }
        assert payload["ranking"] == [["r"], ["l"]]
        assert payload["swf"] == {
            "kind": "kthm",
            "k": {"num": 1, "den": 10},
            "trim_mode": "literal",
        }

    def test_renormalized_mode(self, capsys):
        payload = run_json(
            capsys,
            [
                "rank", FROBO,
                "--swf", "kthm", "--k", "1/10",
                "--trim-mode", "renormalized",
                "--json",
            ],
        )
        assert payload["scores"]["l"] == {"num": -1, "den": 1}
        assert payload["scores"]["r"] == {"num": -2, "den": 1}

    def test_scenario_swf_line_is_the_default(self, tmp_path, capsys):
        path = tmp_path / "with_swf.scenario"
        path.write_text(BASE + "swf maximin\n")
        payload = run_json(capsys, ["rank", str(path), "--json"])
        assert payload["swf"]["kind"] == "maximin"

    def test_flag_overrides_scenario_swf_line(self, tmp_path, capsys):
        path = tmp_path / "with_swf.scenario"
        path.write_text(BASE + "swf maximin\n")
        payload = run_json(
            capsys, ["rank", str(path), "--swf", "mec", "--json"]
        )
        assert payload["swf"]["kind"] == "mec"

    def test_no_swf_anywhere_is_a_usage_error(self, capsys):
        assert main(["rank", FROBO]) == 2
        assert "usage error:" in capsys.readouterr().err

    def test_kthm_needs_k(self, capsys):
        assert main(["rank", FROBO, "--swf", "kthm"]) == 2
        assert "--k" in capsys.readouterr().err

    def test_k_forbidden_elsewhere(self, capsys):
        assert main(["rank", FROBO, "--swf", "mec", "--k", "1/10"]) == 2
        capsys.readouterr()
        assert (
            main(["rank", FROBO, "--swf", "hm", "--trim-mode", "literal"]) == 2
        )

    def test_k_without_swf_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "with_swf.scenario"
        path.write_text(BASE + "swf mec\n")
        flags = [
            ["--k", "1/10", "--trim-mode", "renormalized"],
            ["--k", "1/10"],
            ["--trim-mode", "literal"],
        ]
        for command in ("rank", "dominant"):
            for extra in flags:
                assert main([command, str(path), *extra]) == 2, (command, extra)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "usage error:" in captured.err

    def test_bad_rational_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rank", FROBO, "--swf", "kthm", "--k", "0.5x"])
        assert info.value.code == 2


class TestCompare:
    def test_reports_disagreement(self, capsys):
        assert main(["compare", FROBO]) == 0
        out = capsys.readouterr().out
        assert "functionals disagree on the best actions" in out
        assert "mec: r" in out
        assert "hm: l" in out

    def test_columns_deduped_and_sorted(self, capsys):
        payload = run_json(
            capsys,
            [
                "compare", FROBO,
                "--k", "2/5", "--k", "1/10", "--k", "2/5",
                "--json",
            ],
        )
        assert payload["columns"] == [
            "mec",
            "maximin",
            "kthm(k=1/10, literal)",
            "kthm(k=2/5, literal)",
            "hm",
        ]
        assert payload["best_actions"]["mec"] == ["r"]
        assert payload["best_actions"]["kthm(k=1/10, literal)"] == ["l"]

    def test_agreement_message(self, base_scenario, capsys):
        assert main(["compare", base_scenario]) == 0
        out = capsys.readouterr().out
        assert "all functionals agree on the best actions: a" in out


class TestDominant:
    def test_frobo_under_the_mean(self, capsys):
        payload = run_json(
            capsys, ["dominant", FROBO, "--swf", "mec", "--json"]
        )
        subsets = payload["dominant_subsets"]
        assert len(subsets) == 1
        assert subsets[0]["theory_ids"] == ["d"]
        assert subsets[0]["total_credence"] == {"num": 1, "den": 100}

    def test_frobo_under_the_median(self, capsys):
        payload = run_json(capsys, ["dominant", FROBO, "--swf", "hm", "--json"])
        assert [s["theory_ids"] for s in payload["dominant_subsets"]] == [["u"]]

    def test_human_output_lists_credences(self, capsys):
        assert main(["dominant", TIEBREAKER, "--swf", "mec"]) == 0
        out = capsys.readouterr().out
        assert "dominant subsets (3):" in out
        assert "{dprime}  credence 99/200" in out
        assert "{dprime, t}  credence 101/200" in out

    def test_size_cap_is_a_domain_error(self, capsys):
        assert main(["dominant", FROBO, "--swf", "mec", "--max-theories", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestWitness:
    def test_mec_textbook_output(self, base_scenario, capsys):
        payload = run_json(
            capsys,
            [
                "witness", base_scenario,
                "--swf", "mec", "--credence", "1/4", "--target", "b",
                "--json",
            ],
        )
        assert payload["injected_theory"] == {
            "id": "ft",
            "credence": {"num": 1, "den": 4},
            "evaluations": {
                "a": {"num": 12, "den": 1},
                "b": {"num": 24, "den": 1},
            },
        }
        assert payload["extended_credences"] == {
            "t": {"num": 3, "den": 4},
            "ft": {"num": 1, "den": 4},
        }
        assert payload["verdict"]["is_dominant"] is True
        assert payload["verdict"]["full_ranking"] == [["a"], ["b"]]

    def test_maximin_on_the_firefighter_case(self, capsys):
        assert main(["witness", FROBO, "--swf", "maximin", "--credence", "1/100"]) == 0
        out = capsys.readouterr().out
        assert "l  -10001 (~= -10001)" in out
        assert "r  -10002 (~= -10002)" in out
        assert "verified: {ft} is a dominant subset" in out

    def test_kthm_textbook_output(self, base_scenario, capsys):
        payload = run_json(
            capsys,
            [
                "witness", base_scenario,
                "--swf", "kthm", "--k", "1/10", "--kprime", "1/5",
                "--target", "b", "--json",
            ],
        )
        assert payload["injected_theory"]["evaluations"] == {
            "a": {"num": 13, "den": 1},
            "b": {"num": 26, "den": 1},
        }
        assert payload["construction"]["bound"] == {"num": 4, "den": 5}
        assert payload["construction"]["step"] == {"num": 13, "den": 5}

    def test_frobo_construction_lines(self, capsys):
        cases = [
            (
                ["--swf", "mec", "--credence", "1/100"],
                "construction: target=l a_star=r bound=10099/100 step=10149/50 "
                "permutation=r,l injected_id=ft",
            ),
            (
                ["--swf", "kthm", "--k", "1/10", "--kprime", "1/5"],
                "construction: target=r a_star=l bound=10099/125 step=20323/125 "
                "permutation=l,r injected_id=ft",
            ),
        ]
        for flags, line in cases:
            assert main(["witness", FROBO, *flags]) == 0
            assert line in capsys.readouterr().out.splitlines()

    def test_out_file_reloads_and_ranks(self, base_scenario, tmp_path, capsys):
        out_file = tmp_path / "extended.scenario"
        code = main(
            [
                "witness", base_scenario,
                "--swf", "mec", "--credence", "1/4", "--target", "b",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        doc = parse_scenario(out_file.read_bytes())
        assert doc.default_swf == SwfSpec.mec()
        assert doc.framework.theory_ids() == ("t", "ft")
        payload = run_json(capsys, ["rank", str(out_file), "--json"])
        assert payload["ranking"] == [["a"], ["b"]]

    def test_usage_errors(self, base_scenario, capsys):
        only_kthm = "usage error: --k/--kprime only apply to --swf kthm\n"
        kthm_needs = "usage error: --swf kthm needs --k and --kprime\n"
        cases = [
            (["mec"], "usage error: --swf mec needs --credence\n"),
            (["maximin"], "usage error: --swf maximin needs --credence\n"),
            (
                ["maximin", "--credence", "1/4", "--target", "b"],
                "usage error: --target does not apply to --swf maximin\n",
            ),
            (["maximin", "--credence", "1/4", "--k", "1/10"], only_kthm),
            (["kthm", "--k", "1/10"], kthm_needs),
            (["kthm", "--kprime", "1/5"], kthm_needs),
            (["kthm"], kthm_needs),
            (["mec", "--credence", "1/4", "--kprime", "1/5"], only_kthm),
        ]
        for flags, err in cases:
            argv = ["witness", base_scenario, "--swf", *flags]
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", err), argv

    def test_failed_construction_is_a_domain_error(self, base_scenario, capsys):
        assert (
            main(
                [
                    "witness", base_scenario,
                    "--swf", "mec", "--credence", "1/4", "--target", "a",
                ]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err


class TestAudit:
    def test_small_run_passes(self, capsys):
        assert main(["audit", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_same_seed_same_output(self, capsys):
        assert main(["audit", "--trials", "3", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["audit", "--trials", "3", "--seed", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_shape(self, capsys):
        payload = run_json(capsys, ["audit", "--trials", "2", "--json"])
        assert payload["ok"] is True
        assert payload["trials"] == 2
        names = {s["name"] for s in payload["suites"]}
        assert "mec capture" in names
        assert "hm resistance" in names
        for suite in payload["suites"]:
            assert suite["passed"] == suite["total"] == 2

    def test_zero_trials_vacuous(self, capsys):
        assert main(["audit", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "pass vacuously" in out

    def test_negative_trials_usage_error(self, capsys):
        assert main(["audit", "--trials", "-1"]) == 2


class TestOversizedResults:
    """Numbers past Python's int-to-str digit limit end in one error line.

    Each literal below has 3001 digits, within the limit, but the mean of
    action ``a`` has a denominator of about 6000 digits.
    """

    @staticmethod
    def scenario(tmp_path, b1, b2):
        n = 10**3000
        path = tmp_path / "big.scenario"
        path.write_text(
            "scenario v1\nactions a b\n"
            f"theory t1 credence 1/2\n  eval a 1/{n + 3}\n  eval b {b1}\n"
            f"theory t2 credence 1/2\n  eval a 1/{n + 7}\n  eval b {b2}\n"
        )
        return str(path)

    def assert_one_error_line(self, argv, capsys):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a result has more than 4300 digits\n"

    def test_rank_and_compare(self, tmp_path, capsys):
        path = self.scenario(tmp_path, 2, 1)
        for argv in (
            ["rank", path, "--swf", "mec"],
            ["rank", path, "--swf", "mec", "--json"],
            ["rank", path, "--swf", "hm"],
            ["compare", path],
        ):
            self.assert_one_error_line(argv, capsys)
        assert main(["validate", path]) == 0
        assert main(["dominant", path, "--swf", "mec"]) == 0

    def test_witness_out_writes_nothing(self, tmp_path, capsys):
        # With b at 0 the huge mean of a sets the ladder's step.
        path = self.scenario(tmp_path, 0, 0)
        out_file = tmp_path / "extended.scenario"
        argv = ["witness", path, "--swf", "mec", "--credence", "1/10"]
        self.assert_one_error_line(argv + ["--out", str(out_file)], capsys)
        assert not out_file.exists()
        self.assert_one_error_line(argv + ["--json"], capsys)
