"""Recorded class walks: the members and minimal latentizations of two PAGs.

``tests/data`` holds, for the wide benchmark PAG and for the PAG derived
from the instrument truth, what ``enumerate-mags`` wrote for the PAG and
what ``latentize`` wrote for each member, as recorded before enumeration
and latentization stopped projecting graphs. Any change to either walk
must leave these bytes as they are. The same walk on the wide PAG also
bounds how many inducing-path walks and prefix validations it makes.
"""
from pathlib import Path

import pytest

from confinder import graphs, magspace
from confinder.cli import EXIT_OK, main
from confinder.experiment import derive_true_pag
from confinder.fileio import parse_graph_file, parse_model, serialize_graph
from confinder.graphs import GraphKind
from confinder.latentize import latentize_min

DATA = Path(__file__).parent / "data"


def class_outputs(pag_path: Path, work: Path):
    """``enumerate-mags`` of the PAG, and ``latentize`` of each member it
    lists, each under the member's header line."""
    mags = work / "class.mags"
    assert main(["enumerate-mags", str(pag_path), "-o", str(mags)]) == EXIT_OK
    blocks = []
    for block in mags.read_text().split("# mag ")[1:]:
        header, body = block.split("\n", 1)
        member = work / "member.mag"
        member.write_text(body)
        model = work / "member.model"
        assert main(["latentize", str(member), "-o", str(model)]) == EXIT_OK
        blocks.append(f"# mag {header}\n{model.read_text()}")
    return mags.read_text(), "".join(blocks)


def test_instrument_truth_gives_the_recorded_pag():
    truth = parse_model((DATA / "instrument.model").read_text())
    pag = derive_true_pag(truth, "U")
    cards = {n: truth.cardinality(n) for n in pag.nodes}
    assert serialize_graph(pag, cards) == (DATA / "instrument.pag").read_text()


@pytest.mark.parametrize("name", ["wide", "instrument"])
def test_class_members_and_their_latentizations_are_the_recorded_bytes(name, tmp_path):
    mags, latentized = class_outputs(DATA / f"{name}.pag", tmp_path)
    assert mags == (DATA / f"{name}.mags").read_text()
    assert latentized == (DATA / f"{name}.latentized").read_text()


def test_the_wide_class_walk_projects_nothing_it_need_not(monkeypatch):
    # before the shortcuts, enumerating and latentizing this class took
    # 965 inducing-path walks and 36 prefix validations on rebuilt graphs;
    # the bounds fail a change that brings back a projection per candidate
    counts = {"walks": 0, "validations": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(graphs, "_connected", counting("walks", graphs._connected))
    monkeypatch.setattr(magspace, "validate", counting("validations", magspace.validate))
    pag = parse_graph_file((DATA / "wide.pag").read_text(), GraphKind.PAG).graph
    strata = magspace.enumerate_mags(pag)
    members = [mag for stratum in strata for mag in stratum.mags]
    assert len(members) == 12
    for mag in members:
        latentize_min(mag)
    assert counts["walks"] <= 150
    assert counts["validations"] == 0
