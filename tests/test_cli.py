import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings, strategies as st

from groupcovers import cli, reports
from groupcovers.reports import CHECK_IDS


SMALL_CATALOG = """\
group C2
preset cyclic 2

group C6
preset cyclic 6

group V4
preset product C2 C2
order 4

group S3
perm 3; (1 2 3); (1 2)
order 6

group E8
preset product V4 C2
order 8

group A5
preset alt 5
order 60
"""


@pytest.fixture()
def catalog(tmp_path):
    path = tmp_path / "mini.cat"
    path.write_text(SMALL_CATALOG, encoding="utf-8")
    return str(path)


PER_GROUP_COMMANDS = ("sigma", "lambda", "covers", "classify")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSigma:
    def test_text(self, capsys, catalog):
        code, out, err = run(capsys, "sigma", catalog, "--group", "V4")
        assert code == 0 and err == ""
        assert out == "V4: sigma=3\n"

    def test_json(self, capsys, catalog):
        code, out, _ = run(capsys, "sigma", catalog, "--group", "V4", "--json")
        assert code == 0
        assert json.loads(out) == [{"groupName": "V4", "order": 4, "sigma": 3}]

    def test_global_flag_position(self, capsys, catalog):
        _, before, _ = run(capsys, "--json", "sigma", catalog, "--group", "S3")
        _, after, _ = run(capsys, "sigma", catalog, "--group", "S3", "--json")
        assert before == after
        assert json.loads(before)[0]["sigma"] == 4

    def test_cyclic_reports_infinite(self, capsys, catalog):
        code, out, _ = run(capsys, "sigma", catalog, "--group", "C6", "--json")
        assert json.loads(out)[0]["sigma"] == "Infinite"

    def test_whole_catalog(self, capsys, catalog):
        code, out, _ = run(capsys, "sigma", catalog, "--max-order", "512")
        assert code == 0
        assert "A5: sigma=10" in out

    # Every per-group command shares the skip row.
    def test_max_order_skip(self, capsys, catalog):
        for command in PER_GROUP_COMMANDS:
            code, out, _ = run(capsys, command, catalog, "--group", "A5")
            assert code == 0
            assert "skipped (order 60 exceeds --max-order 64)" not in out
            code, out, _ = run(
                capsys, command, catalog, "--group", "A5", "--max-order", "32"
            )
            assert code == 0
            assert out == "A5: skipped (order 60 exceeds --max-order 32)\n"

    def test_skip_row_in_json(self, capsys, catalog):
        for command in PER_GROUP_COMMANDS:
            _, out, _ = run(
                capsys, "--json", command, catalog, "--group", "A5", "--max-order", "32"
            )
            assert json.loads(out) == [
                {"groupName": "A5", "order": 60, "skipped": True}
            ], command


class TestLambda:
    def test_values(self, capsys, catalog):
        _, out, _ = run(capsys, "lambda", catalog, "--group", "E8", "--json")
        assert json.loads(out)[0]["lambda"] == 7

    def test_cyclic(self, capsys, catalog):
        code, out, _ = run(capsys, "lambda", catalog, "--group", "C6")
        assert code == 0
        assert "cyclic" in out
        _, out, _ = run(capsys, "lambda", catalog, "--group", "C6", "--json")
        assert json.loads(out)[0]["lambda"] is None


class TestCovers:
    def test_family_only(self, capsys, catalog):
        _, out, _ = run(capsys, "covers", catalog, "--group", "S3", "--json")
        row = json.loads(out)[0]
        assert row["lambda"] == 4
        assert row["memberOrders"] == [2, 2, 2, 3]
        assert "enumeration" not in row

    def test_enumerate(self, capsys, catalog):
        _, out, _ = run(
            capsys, "covers", catalog, "--group", "E8", "--enumerate", "--json"
        )
        stats = json.loads(out)[0]["enumeration"]
        assert stats["coverCount"] == 64
        assert stats["sizeCounts"] == [[3, 7], [4, 49], [5, 7], [7, 1]]
        assert stats["multiTraceSizes"] == [3, 4, 5]

    def test_enumerate_with_cap(self, capsys, catalog):
        _, out, _ = run(
            capsys, "covers", catalog, "--group", "E8",
            "--enumerate", "--cap", "3", "--json",
        )
        stats = json.loads(out)[0]["enumeration"]
        assert stats["coverCount"] == 7
        assert stats["sizeCounts"] == [[3, 7]]

    def test_negative_cap_is_an_error(self, capsys, catalog):
        for flags in (["--enumerate"], []):
            code, out, err = run(
                capsys, "covers", catalog, "--group", "E8", *flags, "--cap", "-1"
            )
            assert code == 1
            assert out == ""
            assert err == "error: size cap -1 is negative\n"

    def test_enumerate_skips_groups_above_the_bound(self, capsys, catalog):
        # A5 (order 60) is above the default --enum-bound 32: its row says
        # so and the run goes on, as analyze leaves its sizes out.
        code, out, err = run(capsys, "--json", "covers", catalog, "--enumerate")
        assert code == 0 and err == ""
        rows = {row["groupName"]: row for row in json.loads(out)}
        assert rows["A5"]["enumeration"] is None
        assert rows["A5"]["lambda"] == 31
        assert rows["E8"]["enumeration"]["coverCount"] == 64
        code, out, err = run(capsys, "covers", catalog, "--enumerate", "--group", "A5")
        assert code == 0 and err == ""
        assert out.endswith("\n  not enumerated: order above --enum-bound 32\n")

    def test_text_rendering(self, capsys, catalog):
        code, out, _ = run(capsys, "covers", catalog, "--group", "V4", "--enumerate")
        assert code == 0
        assert "lambda=3" in out
        assert "covers=1" in out
        assert "3:1" in out


class TestClassify:
    def test_positive(self, capsys, catalog):
        _, out, _ = run(capsys, "classify", catalog, "--group", "V4", "--json")
        outcome = json.loads(out)[0]["classifyOutcome"]
        assert outcome["oneSized"] is True
        assert outcome["family"] == {"kind": "CpTimesCp", "p": 2, "n": None}

    def test_negative_text(self, capsys, catalog):
        _, out, _ = run(capsys, "classify", catalog, "--group", "E8")
        assert out == "E8: oneSized=no family=none\n"

    def test_cyclic(self, capsys, catalog):
        _, out, _ = run(capsys, "classify", catalog, "--group", "C6", "--json")
        assert json.loads(out)[0]["classifyOutcome"] is None

    def test_family_text_with_parameters(self, capsys, catalog):
        _, out, _ = run(capsys, "classify", catalog, "--group", "S3")
        assert out == "S3: oneSized=yes family=CpRtimesCn(p=3,n=2)\n"


class TestAnalyze:
    def test_single_group_json_is_object(self, capsys, catalog):
        _, out, _ = run(capsys, "analyze", catalog, "--group", "S3", "--json")
        report = json.loads(out)
        assert isinstance(report, dict)
        assert report["groupName"] == "S3"
        assert report["sigmaExact"] == 4
        assert report["agreement"] is True

    def test_multiple_groups_json_is_array(self, capsys, catalog):
        _, out, _ = run(capsys, "analyze", catalog, "--json")
        reports = json.loads(out)
        assert isinstance(reports, list)
        assert len(reports) == 6

    def test_checks_filter(self, capsys, catalog):
        _, out, _ = run(
            capsys, "analyze", catalog, "--group", "V4", "--json",
            "--checks", "lemma-pnilp",
        )
        assert [c["id"] for c in json.loads(out)["lemmaChecks"]] == ["lemma-pnilp"]

    def test_text_rendering(self, capsys, catalog):
        code, out, _ = run(capsys, "analyze", catalog, "--group", "V4")
        assert code == 0
        assert "V4: order=4 cyclic=no" in out
        assert "lambda=3 sigma=3 tomkinson=3 sizes=[3]" in out
        assert "oneSized=yes family=CpTimesCp" in out

    def test_cyclic_text(self, capsys, catalog):
        _, out, _ = run(capsys, "analyze", catalog, "--group", "C6")
        assert "sigma=Infinite" in out


class TestVerifyCorpus:
    def test_exit_zero_and_summary(self, capsys, catalog):
        code, out, _ = run(capsys, "verify-corpus", catalog)
        assert code == 0
        assert "A5: order=60 sigma=10 agree" in out
        assert (
            "summary: groups=6 nonCyclic=4 agreements=4"
            " disagreements=0 errors=0" in out
        )

    def test_skip_shows_in_text(self, capsys, catalog):
        code, out, _ = run(capsys, "verify-corpus", catalog, "--max-order", "32")
        assert code == 0
        assert "A5: order=60 sigma=None - ! skipped" in out
        assert "errors=1" in out

    def test_json_envelope(self, capsys, catalog):
        code, out, _ = run(capsys, "verify-corpus", catalog, "--json", "--max-order", "64")
        env = json.loads(out)
        assert env["summary"]["groups"] == 6
        assert [r["groupName"] for r in env["reports"]] == sorted(
            r["groupName"] for r in env["reports"]
        )

    def test_disagreement_exit_code(self, capsys, catalog, monkeypatch):
        fake = {
            "assumptions": [],
            "reports": [],
            "summary": {
                "groups": 1, "nonCyclic": 1, "agreements": 0,
                "disagreements": 1, "errors": 0,
            },
        }
        monkeypatch.setattr(cli, "run_verify_corpus", lambda *a, **k: fake)
        code, _, _ = run(capsys, "verify-corpus", catalog, "--json")
        assert code == 1

    def test_text_lines_for_a_build_error_and_a_disagreement(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "mixed.cat"
        path.write_text(
            "group S3\nperm 3; (1 2 3); (1 2)\n\n"
            "group X\npreset product Y Z\n\n"
            "group C2\npreset cyclic 2\n",
            encoding="utf-8",
        )
        verify = reports.verify_classification

        def flip_s3(group):  # the cover-based answer disagrees on S3 alone
            v = verify(group)
            return v._replace(bruteforce=not v.bruteforce) if group.name == "S3" else v

        monkeypatch.setattr(reports, "verify_classification", flip_s3)
        code, out, err = run(capsys, "verify-corpus", str(path))
        assert (code, err) == (1, "")
        assert out == (
            "C2: order=2 sigma=Infinite cyclic\n"
            "S3: order=6 sigma=4 DISAGREE\n"
            "X: order=0 sigma=None - ! build: line 4: product refers to unknown group 'Y'\n"
            "summary: groups=3 nonCyclic=1 agreements=0 disagreements=1 errors=1\n"
        )

    def test_bundled_default(self, capsys):
        # restricting the work keeps this quick: small groups only
        code, out, _ = run(
            capsys, "--json", "verify-corpus", "--max-order", "8", "--enum-bound", "8"
        )
        env = json.loads(out)
        assert env["summary"]["groups"] == 98
        assert env["summary"]["disagreements"] == 0


class TestErrors:
    def test_unknown_group(self, capsys, catalog):
        code, _, err = run(capsys, "sigma", catalog, "--group", "Nope")
        assert code == 1
        assert "error:" in err and "Nope" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sigma", "/nonexistent/file.cat")
        assert code == 1
        assert "error:" in err

    def test_catalog_not_utf8(self, capsys, tmp_path):
        binary = tmp_path / "binary.cat"
        binary.write_bytes(b"group C2\npreset cyclic 2\n\xff\xfe\n")
        code, out, err = run(capsys, "sigma", str(binary))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "utf-8" in err

    def test_catalog_with_a_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.cat"
        path.write_bytes(
            b"\xef\xbb\xbfgroup C2\npreset cyclic 2\n\ngroup V4\npreset product C2 C2\n"
        )
        code, out, err = run(capsys, "sigma", str(path))
        assert (code, err) == (0, "")
        assert out == "C2: sigma=Infinite\nV4: sigma=3\n"

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cat"
        bad.write_text("preset cyclic 4\n", encoding="utf-8")
        code, _, err = run(capsys, "sigma", str(bad))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "line",
        [
            "preset cpcn 2305843009213693951 2 1",
            "preset quaternion 10000000000",
            "perm 10000000; (1 2); (3 4)",
            "perm 300000000; (1 2)",
            "preset sym 100000000",
        ],
    )
    def test_oversized_parameters_fail_fast(self, capsys, tmp_path, line):
        path = tmp_path / "big.cat"
        path.write_text(f"group X\n{line}\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_unknown_check_id(self, capsys, catalog):
        code, _, err = run(
            capsys, "analyze", catalog, "--group", "V4", "--checks", "bogus"
        )
        assert code == 1
        assert "bogus" in err

    def test_repeated_check_id(self, capsys, catalog):
        code, out, err = run(
            capsys, "analyze", catalog, "--group", "V4",
            "--checks", "bryce-serena,bryce-serena",
        )
        assert code == 1
        assert out == ""
        assert "'bryce-serena' is given twice" in err

    @pytest.mark.parametrize(
        "command", ["analyze", "sigma", "lambda", "covers", "classify", "verify-corpus"]
    )
    @pytest.mark.parametrize(
        "flag,value",
        [("--checks", "bogus"), ("--enum-bound", "-5"), ("--max-order", "-1")],
    )
    def test_common_flags_validated_for_every_command(
        self, capsys, catalog, command, flag, value
    ):
        code, out, err = run(capsys, flag, value, command, catalog)
        assert code == 1
        assert out == ""
        assert "error:" in err and value in err


# Every group has order at most 12, so no command walks for long.
FUZZ_CATALOG = """\
group C2
preset cyclic 2

group C6
preset cyclic 6

group V4
preset product C2 C2

group S3
perm 3; (1 2 3); (1 2)

group D8
preset dihedral 4

group Q8
preset quaternion 3

group A4
preset alt 4

group Dic12
preset cpcn 3 4 2
"""
FUZZ_NAMES = ("C2", "C6", "V4", "S3", "D8", "Q8", "A4", "Dic12")
COMMANDS = ("analyze", "sigma", "lambda", "covers", "classify", "verify-corpus")


@pytest.fixture(scope="module")
def fuzz_catalog(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.cat"
    path.write_text(FUZZ_CATALOG, encoding="utf-8")
    return str(path)


@st.composite
def cli_argvs(draw, catalog):
    """A subcommand on the catalog with some of the flags: the global ones
    before or after it, the subcommand ones after it, drawn for every
    subcommand though verify-corpus takes no --group and only covers
    takes --enumerate and --cap."""
    number = st.integers(-3, 40) | st.integers()
    check_id = st.sampled_from(CHECK_IDS) | st.text(max_size=12)
    command = draw(st.sampled_from(COMMANDS))
    before, after = [], [catalog]
    for flag in (
        ["--json"],
        ["--max-order", str(draw(number))],
        ["--enum-bound", str(draw(number))],
        ["--checks", ",".join(draw(st.lists(check_id, max_size=4)))],
    ):
        if draw(st.booleans()):
            (before if draw(st.booleans()) else after).extend(flag)
    for flag in (
        ["--group", draw(st.sampled_from(FUZZ_NAMES) | st.text(max_size=8))],
        ["--enumerate"],
        ["--cap", str(draw(number))],
    ):
        if draw(st.booleans()):
            after.extend(flag)
    return [*before, command, *after]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_argv_returns_or_exits_as_argparse(fuzz_catalog, data):
    """main returns 0 or 1, or argparse exits with 2; nothing else escapes."""
    argv = data.draw(cli_argvs(fuzz_catalog), label="argv")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            event("argparse exit")
            assert exc.code == 2
            return
    event(f"exit {code}")
    assert code in (0, 1)
