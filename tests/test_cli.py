from __future__ import annotations

import hashlib
import json

import pytest

from magicgen import generators
from magicgen.cli import main
from magicgen.catalog import read_catalog, read_classification
from magicgen.enumerator import Shard, count_squares, single_cell_shards
from magicgen.pipeline import emit_report, report_data, run_pipeline

# sha256 of `enumerate --order 4 --shard-cell a --shard-value 16 --out`
# as written before the catalog went through catalog_text.
A16_CATALOG_SHA256 = "1fe7cb05e3a7884d2850b1f29f1811bebe8849ee0af2c274df78929d6acc585c"
# sha256 of the order-3 group listing, formerly group.txt.
ORDER3_GROUP_SHA256 = "330da85482cf5b840d1142bb32a4bcf51d45ca6b5a713243296d48fbb6ff5782"
# Two tiny order-5 subtrees (first row 1+2+13+24 leaves e=25).
ORDER5_PLAN = [Shard((1, 2, 13, 24, 3, 22)), Shard((1, 2, 13, 24, 4, 21))]


def test_analyze_basis(capsys):
    assert main(["analyze", "basis", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "rank=9" in out
    assert "free_cells=a,b,c,e,f,g,i" in out
    assert "d = 34 - a - b - c" in out
    assert "l = f + g - i" in out


def test_analyze_basis_order5(capsys):
    assert main(["analyze", "basis", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "equations=12" in out
    assert "rank=11" in out


def test_enumerate_to_stdout(capsys):
    assert main(["enumerate", "--order", "3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "# format=1"
    assert len([l for l in lines if not l.startswith("#")]) == 8
    assert "# count=8" in captured.err


def test_enumerate_shard_to_file(tmp_path, capsys):
    out = tmp_path / "a16.txt"
    code = main(
        [
            "enumerate", "--order", "4",
            "--shard-cell", "a", "--shard-value", "16",
            "--out", str(out),
        ]
    )
    assert code == 0
    squares = read_catalog(out)
    assert len(squares) == count_squares(4, Shard((16,)))
    assert all(sq.cells[0] == 16 for sq in squares)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == A16_CATALOG_SHA256


def test_enumerate_rejects_bad_shard_cell(capsys):
    code = main(
        ["enumerate", "--order", "4", "--shard-cell", "b", "--shard-value", "1"]
    )
    assert code == 1
    assert "leading trial cells" in capsys.readouterr().err


def test_enumerate_order5_requires_long_run_or_shard(capsys):
    assert main(["enumerate", "--order", "5"]) == 1
    assert "long-running" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "cat.txt"
    main(["enumerate", "--order", "3", "--out", str(out)])
    assert main(["verify", "--in", str(out)]) == 0
    assert "OK: 8 squares" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("# format=1\n1 2 3 4 5 6 7 8 9\n")
    assert main(["verify", "--in", str(bad)]) == 1


@pytest.mark.parametrize(
    "argv",
    [["verify", "--in"], ["classify", "--in"], ["report", "--dir"]],
    ids=["verify", "classify", "report"],
)
def test_missing_input_is_an_error_not_a_traceback(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([*argv, str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("command", ["group", "generators"])
def test_malformed_kv_row_is_an_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.kv"
    bad.write_text("# format=1\nfoo\n")
    extra = {"group": ["--trigg", "A"], "generators": ["--out", str(tmp_path / "g.txt")]}
    assert main([command, "--in", str(bad), *extra[command]]) == 1
    assert capsys.readouterr().err.startswith("error: bad classification row: 'foo'")


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    # One full pipeline run shared by the flow assertions below.
    out = tmp_path_factory.mktemp("pipe4")
    summary = run_pipeline(4, out, log=lambda m: None)
    assert summary.square_count == 7040
    return out


class TestOrder4Flow:
    def test_artifacts_exist(self, outdir):
        for name in (
            "catalog.txt",
            "classes.tsv",
            "generators.txt",
            "report.json",
            "discrepancies.json",
            "summary.txt",
        ):
            assert (outdir / name).exists(), name
        for letter in "ABCD":
            assert (outdir / "groups" / f"trigg_{letter}.txt").exists()

    def test_catalog_verifies(self, outdir):
        from magicgen.catalog import verify_catalog

        verdict = verify_catalog(outdir / "catalog.txt", order=4)
        assert verdict.ok and verdict.count == 7040

    def test_classification_counts(self, outdir):
        records = read_classification(outdir / "classes.tsv")
        assert len(records) == 7040
        gens = [r for r in records if r.is_generator]
        assert len(gens) == 95
        assert all(r.orbit_id is not None for r in records)
        vi = [r for r in records if r.dudeney == "VI"]
        assert len(vi) == 2432
        assert all(r.vi_split in ("VI'", "VI''") for r in vi)
        assert all(
            r.vi_split is None for r in records if r.dudeney != "VI"
        )

    def test_report_json(self, outdir):
        data = json.loads((outdir / "report.json").read_text())
        assert data["square_count"] == 7040
        assert data["total_generators"] == 95
        assert data["trigg_populations"] == {
            "A": 1152, "B": 3968, "C": 1792, "D": 128
        }
        assert data["discrepancies"] == []

    def test_summary_mentions_every_acceptance_number(self, outdir):
        text = (outdir / "summary.txt").read_text()
        for token in ("7040", "95", "1152", "3968", "1792", "128", "none"):
            assert token in text, token

    def test_group_subcommand(self, outdir, tmp_path, capsys):
        code = main(
            ["group", "--in", str(outdir / "classes.tsv"), "--trigg", "D"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "size=32" in captured.out
        assert "pair_view=16" in captured.out

    def test_report_subcommand_is_idempotent(self, outdir, capsys):
        before = (outdir / "summary.txt").read_text()
        assert main(["report", "--dir", str(outdir)]) == 0
        capsys.readouterr()
        assert (outdir / "summary.txt").read_text() == before

    def test_classify_subcommand_matches_pipeline(self, outdir, tmp_path):
        out = tmp_path / "classes2.tsv"
        code = main(
            ["classify", "--in", str(outdir / "catalog.txt"), "--out", str(out)]
        )
        assert code == 0
        records = read_classification(out)
        pipeline_records = read_classification(outdir / "classes.tsv")
        assert len(records) == 7040
        # classify alone leaves orbit fields unset; labels must agree.
        for mine, theirs in zip(records, pipeline_records):
            assert mine.encoding == theirs.encoding
            assert mine.dudeney == theirs.dudeney
            assert mine.trigg == theirs.trigg
            assert mine.vi_split == theirs.vi_split
            assert mine.orbit_id is None and mine.is_generator is None


def test_pipeline_order3_idempotent(tmp_path):
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    run_pipeline(3, out1, log=lambda m: None)
    run_pipeline(3, out2, log=lambda m: None)
    for name in (
        "catalog.txt",
        "groups/order3.txt",
        "generators.txt",
        "report.json",
        "discrepancies.json",
        "summary.txt",
    ):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    group = (out1 / "groups" / "order3.txt").read_bytes()
    assert hashlib.sha256(group).hexdigest() == ORDER3_GROUP_SHA256
    run_pipeline(3, out1, log=lambda m: None)  # rerun in place
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


def test_order3_compared_with_its_published_census(tmp_path, monkeypatch):
    monkeypatch.setitem(generators.REFERENCE_HISTOGRAMS, "order3", {4: 2})
    out = tmp_path / "p3"
    assert main(["pipeline", "--order", "3", "--out-dir", str(out)]) == 0
    assert json.loads((out / "discrepancies.json").read_text()) == [
        {
            "subject": "order3",
            "field": "orbit_histogram",
            "expected": "{4: 2}",
            "computed": "{8: 1}",
        }
    ]
    summary = (out / "summary.txt").read_text()
    assert "order3.orbit_histogram: expected {4: 2}, computed {8: 1}" in summary


@pytest.mark.parametrize("order", ["3", "4"])
def test_pipeline_shard_plan_needs_order5(order, tmp_path, capsys):
    out = tmp_path / "p"
    argv = ["pipeline", "--order", order, "--out-dir", str(out), "--shard-value", "1,2"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: stage=pipeline ")
    assert not out.exists()


def test_pipeline_order5_requires_long_run(tmp_path, capsys):
    code = main(["pipeline", "--order", "5", "--out-dir", str(tmp_path / "p5")])
    assert code == 1
    assert "long-running" in capsys.readouterr().err


def test_pipeline_order5_shard_plan_resumes(tmp_path):
    out = tmp_path / "p5"
    # Deep prefixes keep each shard's subtree tiny; the plan is explicit.
    # (First row 1+2+13+24 leaves e=25; both subtrees are nonempty.)
    shards = [
        Shard((1, 2, 13, 24, 3, 22)),
        Shard((1, 2, 13, 24, 4, 21)),
    ]
    events: list[str] = []
    summary = run_pipeline(5, out, long_run=True, shards=shards, log=events.append)
    assert (out / "manifest.txt").exists()
    counts = sorted(p.name for p in (out / "shards").glob("*.count"))
    assert len(counts) == 2
    first_total = summary.square_count
    assert first_total > 0
    assert any("status=done" in e for e in events)

    # Second run resumes: nothing recomputed, same totals.
    events.clear()
    summary2 = run_pipeline(5, out, long_run=True, shards=shards, log=events.append)
    assert summary2.square_count == first_total
    assert all("status=resumed" in e for e in events if "stage=shard" in e)

    # Deleting one count file recomputes exactly that shard.
    victim = out / "shards" / counts[0]
    victim.unlink()
    events.clear()
    summary3 = run_pipeline(5, out, long_run=True, shards=shards, log=events.append)
    assert summary3.square_count == first_total
    shard_events = [e for e in events if "stage=shard" in e]
    assert sum("status=done" in e for e in shard_events) == 1
    assert sum("status=resumed" in e for e in shard_events) == 1


@pytest.fixture(params=[3, 4, 5], ids=["order3", "order4", "order5"])
def any_run(request, tmp_path):
    if request.param == 4:
        return request.getfixturevalue("outdir")
    out = tmp_path / f"p{request.param}"
    plan = {"long_run": True, "shards": ORDER5_PLAN} if request.param == 5 else {}
    run_pipeline(request.param, out, log=lambda m: None, **plan)
    return out


def test_report_reproduces_any_run(any_run, capsys):
    summary = (any_run / "summary.txt").read_text()
    assert summary == emit_report(json.loads((any_run / "report.json").read_text()))
    assert main(["report", "--dir", str(any_run)]) == 0
    assert capsys.readouterr().out == summary
    assert (any_run / "summary.txt").read_text() == summary


def test_order5_report_labels_the_plan(tmp_path):
    out = tmp_path / "p5"
    summary = run_pipeline(5, out, long_run=True, shards=ORDER5_PLAN, log=lambda m: None)
    plan = json.loads((out / "report.json").read_text())["shard_plan"]
    assert plan == {
        "prefix_depth": 6,
        "shards": 2,
        "covers_all_prefixes": False,
        "reference_count": 2202441792,
    }
    text = (out / "summary.txt").read_text()
    assert f"squares enumerated: {summary.square_count}" in text
    assert "2 shards of prefix depth 6 (partial plan)" in text
    full = emit_report(report_data(5, 0, None, None, single_cell_shards(5)))
    assert "25 shards of prefix depth 1 (full plan)" in full


BAD_PLANS = {
    "empty": [],
    "repeated": [Shard((13, 1, 2, 24, 3, 14, 16, 12))] * 2,
    "nested": [Shard((13, 1, 2, 24, 3, 14, 16)), Shard((13, 1, 2, 24, 3, 14, 16, 12))],
    "repeated_value": [Shard((1, 1))],
    "out_of_range": [Shard((26,))],
    "too_deep": [Shard(tuple(range(1, 16)))],
}


@pytest.mark.parametrize("plan", BAD_PLANS.values(), ids=BAD_PLANS.keys())
def test_bad_shard_plan_rejected_before_the_manifest(plan, tmp_path):
    out = tmp_path / "p5"
    with pytest.raises(ValueError):
        run_pipeline(5, out, long_run=True, shards=plan, log=lambda m: None)
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("plan", ["repeated", "nested", "repeated_value"])
def test_bad_shard_plan_cli_error(plan, tmp_path, capsys):
    argv = ["pipeline", "--order", "5", "--long-run", "--out-dir", str(tmp_path / "p5")]
    for shard in BAD_PLANS[plan]:
        argv += ["--shard-value", ",".join(map(str, shard.prefix))]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: stage=pipeline ")


@pytest.mark.parametrize(
    "text",
    [
        "garbage 99999\n",
        "# format=1\ncount 99999\n",
        "# format=1\n# kind=shard-count order=5 cells=a,b,c,d,e,f prefix={tag}\ncount 99999\n",
        "# format=1\n# kind=shard-count order=5 cells={cells} prefix={tag}\ncount 99999\n\n",
    ],
    ids=["garbage", "old_format", "other_cells", "trailing_line"],
)
def test_untrusted_count_file_is_recounted(text, tmp_path):
    out = tmp_path / "p5"
    first = run_pipeline(5, out, long_run=True, shards=ORDER5_PLAN, log=lambda m: None)
    victim = out / "shards" / "shard_01_02_13_24_03_22.count"
    good = victim.read_text()
    assert good == (
        "# format=1\n"
        "# kind=shard-count order=5 cells=a,b,c,d,f,g prefix=01_02_13_24_03_22\n"
        "count 1\n"
    )
    victim.write_text(text.format(tag="01_02_13_24_03_22", cells="a,b,c,d,f,g"))
    events: list[str] = []
    again = run_pipeline(5, out, long_run=True, shards=ORDER5_PLAN, log=events.append)
    assert again.square_count == first.square_count
    shard_events = [e for e in events if "stage=shard" in e]
    assert sum("status=recounted" in e for e in shard_events) == 1
    assert sum("status=resumed" in e for e in shard_events) == 1
    assert victim.read_text() == good
