"""Command-line behavior: outputs, round trips, exit codes."""
import itertools
import random
import time

import pytest

from confinder import cli, latentize
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

    def test_budget_bounds_the_class_walk(self, tmp_path, capsys):
        # a 6-node o-o clique has 30 circles and a class walk far longer
        # than the budget, so only the deadline inside the walk ends it
        nodes = [f"X{i}" for i in range(6)]
        (tmp_path / "clique.pag").write_text(
            "".join(f"node {n} 2\n" for n in nodes)
            + "".join(f"{a} o-o {b}\n" for a, b in itertools.combinations(nodes, 2))
        )
        rng = random.Random(0)
        rows = [",".join(str(rng.randint(0, 1)) for _ in nodes) for _ in range(200)]
        (tmp_path / "data.csv").write_text("\n".join([",".join(nodes), *rows]) + "\n")
        budget = 2.0
        started = time.monotonic()
        code = main(
            [
                "learn",
                str(tmp_path / "clique.pag"),
                str(tmp_path / "data.csv"),
                "--strategy",
                "ilcv",
                "--budget-seconds",
                str(budget),
                "--model-out",
                str(tmp_path / "best.model"),
                "--trace-out",
                str(tmp_path / "trace.csv"),
            ]
        )
        took = time.monotonic() - started
        assert code == EXIT_BUDGET
        assert took <= budget + 1.0
        assert parse_report(capsys.readouterr().out)["stop_reason"] == "budget"
        parse_latentized((tmp_path / "best.model").read_text())
        assert len(parse_trace((tmp_path / "trace.csv").read_text())) >= 1


    # 12 variables, 14 circle marks, and the class holds 252 MAGs; the same
    # PAG with a thirteenth variable is past what a signature comparison takes
    TWELVE_PAG = "".join(f"node V{i} 2\n" for i in range(12)) + """\
V0 <-o V10
V0 <-o V9
V1 <-o V4
V1 <-o V9
V10 o-> V11
V11 <-- V6
V11 <-- V7
V2 <-> V3
V2 o-o V5
V2 <-o V8
V3 <-> V5
V3 <-o V7
V4 o-o V7
V5 --> V6
V5 <-o V8
V7 o-o V8
"""
    THIRTEENTH = "node V12 2\nV12 --> V11\n"

    @pytest.mark.parametrize(
        "strategy, extra",
        [
            pytest.param(strategy, extra, id=strategy + suffix)
            for suffix, extra in (("", ""), ("-thirteen", THIRTEENTH))
            for strategy in ("ilcv", "hclcv")
        ],
    )
    def test_budget_bounds_a_twelve_variable_search(self, tmp_path, capsys, strategy, extra):
        (tmp_path / "twelve.pag").write_text(self.TWELVE_PAG + extra)
        names = [f"V{i}" for i in range(13 if extra else 12)]
        rng = random.Random(0)
        rows = [",".join(str(rng.randint(0, 1)) for _ in names) for _ in range(200)]
        (tmp_path / "data.csv").write_text("\n".join([",".join(names), *rows]) + "\n")
        budget = 5.0
        started = time.monotonic()
        code = main(
            [
                "learn",
                str(tmp_path / "twelve.pag"),
                str(tmp_path / "data.csv"),
                "--strategy",
                strategy,
                "--budget-seconds",
                str(budget),
                "--model-out",
                str(tmp_path / "best.model"),
                "--trace-out",
                str(tmp_path / "trace.csv"),
            ]
        )
        took = time.monotonic() - started
        assert code in (EXIT_OK, EXIT_BUDGET)
        assert took <= budget + 1.0
        report = parse_report(capsys.readouterr().out)
        assert (report["stop_reason"] == "budget") == (code == EXIT_BUDGET)
        parse_latentized((tmp_path / "best.model").read_text())
        assert len(parse_trace((tmp_path / "trace.csv").read_text())) >= 1


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


class TestLabels:
    PAG = "node A 2 no yes\nnode B 2\nnode C 2\nA o-> B\nB <-> C\n"

    def test_learned_model_keeps_labels_and_scores_the_same_data(self, tmp_path, capsys):
        (tmp_path / "labelled.pag").write_text(self.PAG)
        rng = random.Random(5)
        rows = [f"{rng.choice(('no', 'yes'))},{rng.randrange(2)},{rng.randrange(2)}"
                for _ in range(200)]
        (tmp_path / "labelled.csv").write_text("A,B,C\n" + "\n".join(rows) + "\n")
        model, data = str(tmp_path / "learned.model"), str(tmp_path / "labelled.csv")
        assert main(["learn", str(tmp_path / "labelled.pag"), data, "--model-out", model]) == EXIT_OK
        assert "node A 2 no yes\n" in (tmp_path / "learned.model").read_text()
        assert main(["score", model, data]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_latentize_keeps_labels(self, tmp_path, capsys):
        (tmp_path / "labelled.mag").write_text("node A 2 no yes\nnode B 2\nA <-> B\n")
        assert main(["latentize", str(tmp_path / "labelled.mag")]) == EXIT_OK
        assert "node A 2 no yes\n" in capsys.readouterr().out


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

    def test_a_ten_node_circle_chain_lists_its_nineteen_mags(self, tmp_path, capsys):
        # 18 circles: 2^18 orientations, which no longer bars the walk
        nodes = [f"N{i:02d}" for i in range(10)]
        (tmp_path / "chain.pag").write_text(
            "".join(f"node {n} 2\n" for n in nodes)
            + "".join(f"{a} o-o {b}\n" for a, b in zip(nodes, nodes[1:]))
        )
        code = main(["enumerate-mags", str(tmp_path / "chain.pag")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.count("# mag ") == 19

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

    def test_latentize_takes_thirteen_variables(self, tmp_path, capsys):
        nodes = [f"X{i:02d}" for i in range(13)]
        (tmp_path / "wide.mag").write_text(
            "".join(f"node {n} 2\n" for n in nodes)
            + "".join(f"{a} <-> {b}\n" for a, b in zip(nodes, nodes[1:3]))
            + "".join(f"{a} --> {b}\n" for a, b in zip(nodes[2:], nodes[3:]))
        )
        code = main(["latentize", str(tmp_path / "wide.mag")])
        assert code == EXIT_OK
        model = parse_latentized(capsys.readouterr().out)
        assert [l.children for l in model.spec.latents] == [("X00", "X01"), ("X01", "X02")]


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

    @pytest.mark.parametrize(
        "edges, problem",
        [
            ("A --> _L1\n_L1 --> B\n", "line 4: latent '_L1' has parents"),
            ("_L1 --> A\nA --> B\n", "line 4: latent '_L1' children do not match"),
            ("A --> B\nB --> C\nC --> A\n_L1 --> A\n_L1 --> B\n", "parsed graph is not valid"),
        ],
    )
    def test_malformed_model_is_validation(self, tmp_path, capsys, edges, problem):
        text = "node A 2\nnode B 2\nnode C 2\nlatent _L1 states 2 children A B\n" + edges
        (tmp_path / "bad.model").write_text(text)
        (tmp_path / "d.csv").write_text("A,B,C\n0,1,0\n")
        code = main(["score", str(tmp_path / "bad.model"), str(tmp_path / "d.csv")])
        assert code == EXIT_VALIDATION
        assert problem in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "command, flag, token",
        [
            ("learn", "--restarts", "1_0"),
            ("learn", "--seed", "+5"),
            ("learn", "--max-states", "\u0661\u0662"),
            ("trace", "--max-bidirected", "2.0"),
            ("score", "--restarts", " 3"),
            ("sample", "-n", "1_000"),
        ],
    )
    def test_count_flags_read_ascii_digits_only(self, workdir, capsys, command, flag, token):
        inputs = {
            "sample": ["truth.model"],
            "score": ["truth.model", "data.csv"],
        }.get(command, ["true.pag", "data.csv"])
        with pytest.raises(SystemExit) as exc:
            main([command, *(str(workdir / name) for name in inputs), flag, token])
        assert exc.value.code == EXIT_VALIDATION
        assert f"{token!r} is not an integer" in capsys.readouterr().err

    def test_broken_search_invariant_is_internal(self, workdir, monkeypatch, capsys):
        def broken_search(pag, data, cfg):
            return None, SearchTrace((), None, "converged")

        monkeypatch.setattr(cli, "run_search", broken_search)
        code = main(["learn", str(workdir / "true.pag"), str(workdir / "data.csv")])
        assert code == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_failed_latentization_is_internal(self, tmp_path, monkeypatch, capsys):
        # the finest grouping always verifies for a valid MAG, so finding no
        # placement is a program fault, not bad input
        (tmp_path / "pair.mag").write_text("node A 2\nnode B 2\nA <-> B\n")
        monkeypatch.setattr(latentize, "preserves_independencies", lambda c, maximal: False)
        code = main(["latentize", str(tmp_path / "pair.mag")])
        assert code == EXIT_INTERNAL
        assert "no independence-preserving latent placement" in capsys.readouterr().err

    def test_hill_climb_start_above_the_cap_is_validation(self, workdir, capsys):
        code = main(
            [
                "learn",
                str(workdir / "true.pag"),
                str(workdir / "data.csv"),
                "--strategy",
                "hclcv",
                "--max-bidirected",
                "0",
            ]
        )
        assert code == EXIT_VALIDATION
        assert "reference MAG has 1 bi-directed" in capsys.readouterr().err

    def test_walk_cut_before_an_in_cap_mag_is_budget(self, tmp_path, capsys):
        # the reference MAG has both V0 <-> V2 and V1 <-> V2, and the walk
        # meets it before the one-edge member V1 --> V0, V1 --> V2; a walk
        # cut at once holds no MAG within the cap, so there is no model
        (tmp_path / "three.pag").write_text(
            "node V0 2\nnode V1 2\nnode V2 2\nV0 o-o V1\nV0 <-> V2\nV1 o-> V2\n"
        )
        rng = random.Random(0)
        rows = [",".join(str(rng.randint(0, 1)) for _ in range(3)) for _ in range(100)]
        (tmp_path / "data.csv").write_text("\n".join(["V0,V1,V2", *rows]) + "\n")
        outputs = [tmp_path / name for name in ("report.txt", "best.model", "trace.csv")]

        def learn(budget):
            return main([
                "learn", str(tmp_path / "three.pag"), str(tmp_path / "data.csv"),
                "--max-bidirected", "1", "--budget-seconds", budget,
                "-o", str(outputs[0]), "--model-out", str(outputs[1]),
                "--trace-out", str(outputs[2]),
            ])

        assert learn("1e-9") == EXIT_BUDGET
        assert "at most 1 bi-directed" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)
        assert learn("100") == EXIT_OK
        assert all(path.exists() for path in outputs)
        assert parse_report(outputs[0].read_text())["best_stratum"] == "1"

    def test_sample_size_validation(self, workdir, capsys):
        code = main(["sample", str(workdir / "truth.model"), "-n", "0"])
        assert code == EXIT_VALIDATION
