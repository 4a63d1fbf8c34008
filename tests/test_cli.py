"""Command-line behavior: outputs, round trips, exit codes."""
import pytest

from confinder import cli
from confinder.cli import EXIT_BUDGET, EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, main
from confinder.fileio import (
    parse_data,
    parse_latentized,
    parse_mag,
    parse_report,
    parse_trace,
)
from confinder.search import SearchTrace

TRUTH_MODEL = """\
node A 2
node B 2
node C 2
node D 2
node U 2
A --> B
U --> B
U --> C
D --> C
cpt A | : 0.5 0.5
cpt U | : 0.5 0.5
cpt D | : 0.5 0.5
cpt B | A=0,U=0 : 0.95 0.05
cpt B | A=0,U=1 : 0.25 0.75
cpt B | A=1,U=0 : 0.75 0.25
cpt B | A=1,U=1 : 0.05 0.95
cpt C | D=0,U=0 : 0.95 0.05
cpt C | D=0,U=1 : 0.25 0.75
cpt C | D=1,U=0 : 0.75 0.25
cpt C | D=1,U=1 : 0.05 0.95
"""

TRUE_PAG = """\
node A 2
node B 2
node C 2
node D 2
A o-> B
B <-> C
C <-o D
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "truth.model").write_text(TRUTH_MODEL)
    (tmp_path / "true.pag").write_text(TRUE_PAG)
    code = main(
        [
            "sample",
            str(tmp_path / "truth.model"),
            "-n",
            "400",
            "--seed",
            "7",
            "--hide",
            "U",
            "-o",
            str(tmp_path / "data.csv"),
        ]
    )
    assert code == EXIT_OK
    return tmp_path


class TestSample:
    def test_hidden_column_dropped_and_reproducible(self, workdir):
        text = (workdir / "data.csv").read_text()
        data = parse_data(text)
        assert data.names == ("A", "B", "C", "D")
        assert data.n_rows == 400
        code = main(
            [
                "sample",
                str(workdir / "truth.model"),
                "-n",
                "400",
                "--seed",
                "7",
                "--hide",
                "U",
                "-o",
                str(workdir / "again.csv"),
            ]
        )
        assert code == EXIT_OK
        assert (workdir / "again.csv").read_text() == text

    def test_stdout_default(self, workdir, capsys):
        code = main(
            ["sample", str(workdir / "truth.model"), "-n", "3", "--seed", "1"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "A,B,C,D,U"
        assert len(out.splitlines()) == 4


class TestLearn:
    def test_recovers_the_confounder(self, workdir, capsys):
        code = main(
            [
                "learn",
                str(workdir / "true.pag"),
                str(workdir / "data.csv"),
                "--model-out",
                str(workdir / "learned.model"),
                "--trace-out",
                str(workdir / "trace.csv"),
            ]
        )
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert report["strategy"] == "ilcv"
        assert report["stop_reason"] == "stratum-no-improvement"
        assert report["latents"] == "1"
        assert report["latent._L1"] == "states=2 children=B,C"
        assert float(report["p_elbo"]) < 0

        learned = parse_latentized((workdir / "learned.model").read_text())
        assert [l.children for l in learned.spec.latents] == [("B", "C")]
        entries = parse_trace((workdir / "trace.csv").read_text())
        assert len(entries) == int(report["visited"])
        assert max(e.p_elbo for e in entries) == float(report["p_elbo"])

    def test_hclcv_strategy_flag(self, workdir, capsys):
        code = main(
            [
                "learn",
                str(workdir / "true.pag"),
                str(workdir / "data.csv"),
                "--strategy",
                "hclcv",
            ]
        )
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert report["strategy"] == "hclcv"
        assert report["stop_reason"] == "local-maximum"

    def test_normalized_outputs_are_byte_identical(self, workdir):
        args = [
            "learn",
            str(workdir / "true.pag"),
            str(workdir / "data.csv"),
            "--normalize-times",
        ]
        for tag in ("1", "2"):
            code = main(
                args
                + [
                    "-o",
                    str(workdir / f"report{tag}.txt"),
                    "--trace-out",
                    str(workdir / f"trace{tag}.csv"),
                ]
            )
            assert code == EXIT_OK
        assert (workdir / "report1.txt").read_bytes() == (
            workdir / "report2.txt"
        ).read_bytes()
        assert (workdir / "trace1.csv").read_bytes() == (
            workdir / "trace2.csv"
        ).read_bytes()

    def test_budget_exit_code(self, workdir, capsys):
        code = main(
            [
                "learn",
                str(workdir / "true.pag"),
                str(workdir / "data.csv"),
                "--budget-seconds",
                "0.000001",
            ]
        )
        assert code == EXIT_BUDGET
        report = parse_report(capsys.readouterr().out)
        assert report["stop_reason"] == "budget"
        assert report["partial"] == "true"


class TestScore:
    def test_plain_dag_scores_deterministically(self, workdir, capsys):
        (workdir / "dag.model").write_text(
            "node A 2\nnode B 2\nnode C 2\nnode D 2\n"
            "A --> B\nB <-- C\nC --> D\n"
        )
        code = main(
            [
                "score",
                str(workdir / "dag.model"),
                str(workdir / "data.csv"),
                "--normalize-times",
            ]
        )
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert report["converged"] == "true"
        assert report["iterations"] == "1"
        assert report["elbo"] == report["p_elbo"]  # no latents, no penalty
        assert report["seconds"] == "0.0"

    def test_latentized_model_scores(self, workdir, capsys):
        code = main(
            [
                "learn",
                str(workdir / "true.pag"),
                str(workdir / "data.csv"),
                "--model-out",
                str(workdir / "learned.model"),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(
            ["score", str(workdir / "learned.model"), str(workdir / "data.csv")]
        )
        assert code == EXIT_OK
        report = parse_report(capsys.readouterr().out)
        assert float(report["p_elbo"]) < float(report["elbo"])


class TestEnumerateAndLatentize:
    def test_enumerate_blocks_parse_back(self, workdir, capsys):
        code = main(["enumerate-mags", str(workdir / "true.pag")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 4  # strata 1, 2, 2, 3
        strata = []
        for block in blocks:
            header = block.splitlines()[0]
            strata.append(int(header.rsplit(" ", 1)[1].rstrip(")")))
            parse_mag(block)
        assert strata == [1, 2, 2, 3]

    def test_three_orientations_of_a_circle_pair(self, tmp_path, capsys):
        (tmp_path / "pair.pag").write_text("node A 2\nnode B 2\nA o-o B\n")
        code = main(["enumerate-mags", str(tmp_path / "pair.pag")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 3
        tokens = sorted(b.splitlines()[-1] for b in blocks)
        assert tokens == ["A --> B", "A <-- B", "A <-> B"]

    def test_latentize_places_two_confounders(self, tmp_path, capsys):
        (tmp_path / "chain.mag").write_text(
            "node X1 2\nnode X2 2\nnode X3 2\nX1 <-> X2\nX2 <-> X3\n"
        )
        code = main(["latentize", str(tmp_path / "chain.mag")])
        assert code == EXIT_OK
        model = parse_latentized(capsys.readouterr().out)
        assert [l.children for l in model.spec.latents] == [
            ("X1", "X2"),
            ("X2", "X3"),
        ]


class TestTraceCommand:
    def test_emits_only_the_visit_log(self, workdir, capsys):
        code = main(
            ["trace", str(workdir / "true.pag"), str(workdir / "data.csv")]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        entries = parse_trace(out)
        assert out.splitlines()[0] == "stratum,model_id,p_elbo,seconds"
        assert len(entries) >= 3

    def test_trace_matches_learn(self, workdir, capsys):
        main(
            [
                "trace",
                str(workdir / "true.pag"),
                str(workdir / "data.csv"),
                "--normalize-times",
                "-o",
                str(workdir / "t_only.csv"),
            ]
        )
        main(
            [
                "learn",
                str(workdir / "true.pag"),
                str(workdir / "data.csv"),
                "--normalize-times",
                "-o",
                str(workdir / "unused.txt"),
                "--trace-out",
                str(workdir / "t_learn.csv"),
            ]
        )
        assert (workdir / "t_only.csv").read_bytes() == (
            workdir / "t_learn.csv"
        ).read_bytes()


class TestExitCodes:
    def test_malformed_pag_is_validation(self, tmp_path, capsys):
        (tmp_path / "bad.pag").write_text("node A 2\nnode B 2\nA >-> B\n")
        (tmp_path / "d.csv").write_text("A,B\n0,1\n")
        code = main(["learn", str(tmp_path / "bad.pag"), str(tmp_path / "d.csv")])
        assert code == EXIT_VALIDATION
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_is_validation(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("A,B\n0,1\n")
        code = main(["learn", str(tmp_path / "nope.pag"), str(tmp_path / "d.csv")])
        assert code == EXIT_VALIDATION

    def test_reserved_data_header_is_validation(self, workdir, capsys):
        (workdir / "bad.csv").write_text("_L1,B\n0,1\n")
        code = main(
            ["learn", str(workdir / "true.pag"), str(workdir / "bad.csv")]
        )
        assert code == EXIT_VALIDATION
        assert "reserved" in capsys.readouterr().err

    def test_unknown_strategy_is_rejected_by_the_parser(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "learn",
                    str(workdir / "true.pag"),
                    str(workdir / "data.csv"),
                    "--strategy",
                    "greedy",
                ]
            )
        assert exc.value.code == 2

    def test_broken_search_invariant_is_internal(self, workdir, monkeypatch, capsys):
        def broken_search(pag, data, cfg):
            return None, SearchTrace((), None, "converged")

        monkeypatch.setattr(cli, "run_search", broken_search)
        code = main(["learn", str(workdir / "true.pag"), str(workdir / "data.csv")])
        assert code == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_sample_size_validation(self, workdir, capsys):
        code = main(["sample", str(workdir / "truth.model"), "-n", "0"])
        assert code == EXIT_VALIDATION
