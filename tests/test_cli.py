from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from magicgen import generators
from magicgen.classifier import TRIGG_LETTERS
from magicgen.cli import build_parser, main
from magicgen.catalog import catalog_text, read_catalog, read_classification
from magicgen.enumerator import count_squares, iter_squares, single_cell_shards
from magicgen.pipeline import emit_report, report_data, run_pipeline
from magicgen.squares import encode_square
from perfbench import gates

# sha256 of `enumerate --order 4 --shard-cell a --shard-value 16 --out`
# as written before the catalog went through catalog_text.
A16_CATALOG_SHA256 = "1fe7cb05e3a7884d2850b1f29f1811bebe8849ee0af2c274df78929d6acc585c"
# sha256 of the order-3 group listing, formerly group.txt.
ORDER3_GROUP_SHA256 = "330da85482cf5b840d1142bb32a4bcf51d45ca6b5a713243296d48fbb6ff5782"
# Two tiny order-5 subtrees (first row 1+2+13+24 leaves e=25).
ORDER5_PLAN = [(1, 2, 13, 24, 3, 22), (1, 2, 13, 24, 4, 21)]


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


# Orders above 5 have no search, so only `analyze basis` shows their trial
# order; these pins hold it fixed.
TRIAL_ORDERS = {
    6: "c0,c1,c2,c3,c4,c6,c7,c8,c9,c10,c12,c13,c14,c15,c16,c18,c24,c20,c19,c26,c21,"
    "c22,c27",
    7: "c0,c1,c2,c3,c4,c5,c7,c8,c9,c10,c11,c12,c14,c15,c16,c17,c18,c19,c21,c22,c23,"
    "c24,c25,c26,c28,c35,c30,c29,c37,c31,c38,c32,c33,c39",
}


@pytest.mark.parametrize("n", TRIAL_ORDERS)
def test_analyze_basis_trial_order_above_order5(n, capsys):
    assert main(["analyze", "basis", "--order", str(n)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"trial_order={TRIAL_ORDERS[n]}" in out


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
    assert len(squares) == count_squares(4, (16,))
    assert all(sq.cells[0] == 16 for sq in squares)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == A16_CATALOG_SHA256


@pytest.mark.parametrize(
    "shard_args",
    [["--order", "3"], ["--order", "4", "--shard-cell", "a", "--shard-value", "16"]],
    ids=["order3", "order4-a16"],
)
def test_enumerate_stdout_equals_out_file(shard_args, tmp_path, capsys):
    assert main(["enumerate", *shard_args]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "catalog.txt"
    assert main(["enumerate", *shard_args, "--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode()


def test_enumerate_out_failing_midstream_keeps_old_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "catalog.txt"
    out.write_text("old\n")

    def failing(n, shard):
        yield from islice(iter_squares(n, shard), 3)
        raise RuntimeError("search failed")

    monkeypatch.setattr("magicgen.cli.iter_squares", failing)
    with pytest.raises(RuntimeError, match="search failed"):
        main(["enumerate", "--order", "4", "--out", str(out)])
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["catalog.txt"]


def test_enumerate_rejects_bad_shard_cell(capsys):
    code = main(
        ["enumerate", "--order", "4", "--shard-cell", "b", "--shard-value", "1"]
    )
    assert code == 1
    assert "leading trial cells" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["aa", "", "1x"])
def test_enumerate_rejects_malformed_shard_cell(cell, capsys):
    # A usage error naming the option, as `pipeline --shard-value x` is.
    argv = ["enumerate", "--order", "4", "--shard-cell", cell, "--shard-value", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    expected = f"argument --shard-cell: expected one cell letter or an integer index, got {cell!r}"
    assert capsys.readouterr().err.endswith(f"{expected}\n")


@pytest.mark.parametrize("order", ["0", "2", "-1"])
@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_order_below_3_is_a_usage_error(command, order, tmp_path, capsys):
    # Refused before any catalog is read: an order-3 catalog without an
    # order line, checked at order 2, would otherwise fail line by line.
    catalog = tmp_path / "cat.txt"
    catalog.write_text("# format=1\n" + "".join(encode_square(sq) + "\n" for sq in iter_squares(3)))
    argv = ["verify", "--in", str(catalog)] if command == "verify" else ["analyze", "basis"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", order])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = f"argument --order: expected an order of 3 or more, got {order!r}"
    assert captured.err.endswith(f"{expected}\n")


def test_group_trigg_choices_are_the_trigg_letters():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    trigg = next(a for a in sub.choices["group"]._actions if a.dest == "trigg")
    assert trigg.choices == TRIGG_LETTERS


def test_enumerate_checks_the_shard_before_writing(capsys):
    argv = ["enumerate", "--order", "4", "--shard-cell", "a", "--shard-value", "99"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: shard prefix value 99 outside 1..16\n"


def test_enumerate_order5_requires_long_run_or_shard(tmp_path, capsys):
    out = tmp_path / "cat.txt"
    for extra in ([], ["--out", str(out)]):
        assert main(["enumerate", "--order", "5", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: full order-5 enumeration is a long-running job; "
            "pass --long-run or shard it with --shard-cell/--shard-value\n"
        )
    assert not out.exists()


def test_group_without_members_is_an_error(tmp_path, capsys):
    # A classification file that labels no square B.
    classes = tmp_path / "classes.tsv"
    classes.write_text("# format=1\n")
    out = tmp_path / "group.txt"
    for extra in ([], ["--out", str(out)]):
        assert main(["group", "--in", str(classes), "--trigg", "B", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no squares labeled trigg=B\n"
    assert not out.exists()


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "cat.txt"
    main(["enumerate", "--order", "3", "--out", str(out)])
    assert main(["verify", "--in", str(out)]) == 0
    assert "OK: 8 squares" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("# format=1\n1 2 3 4 5 6 7 8 9\n")
    assert main(["verify", "--in", str(bad)]) == 1


def test_verify_reads_at_header_order(tmp_path, capsys):
    # An order-4 header over 8 order-3 squares and 3 order-4 squares.
    mixed = tmp_path / "mixed.txt"
    order4 = "".join(encode_square(sq) + "\n" for sq in islice(iter_squares(4), 3))
    mixed.write_text(catalog_text(iter_squares(3), 4) + order4)
    assert main(["verify", "--in", str(mixed)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: line 0: expected 16 values for order 4, got 9" in out
    assert "OK" not in out
    assert main(["verify", "--in", str(mixed), "--order", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize(
    "report, detail",
    [
        ({}, "KeyError('order')"),
        ([], "TypeError("),
        ({"order": 4, "square_count": 0, "classes": {}}, "KeyError('total_generators')"),
        (
            {"order": 4, "square_count": 0, "total_generators": 0, "classes": []},
            "AttributeError(",
        ),
    ],
    ids=["empty-object", "list", "classes-without-total", "classes-as-list"],
)
def test_malformed_report_is_an_error_not_a_traceback(report, detail, tmp_path, capsys):
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert main(["report", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad report.json: {detail}")
    assert not (tmp_path / "summary.txt").exists()


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
            assert mine.square == theirs.square
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


@pytest.mark.parametrize("order", ["3", "4", "5"])
def test_pipeline_has_no_format_option(order, tmp_path, capsys):
    # Classification output format belongs to `classify --format`; the
    # pipeline always writes classes.tsv as tab-separated rows.
    assert "fmt" not in inspect.signature(run_pipeline).parameters
    out = tmp_path / "p"
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--order", order, "--out-dir", str(out), "--format", "kv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format kv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", ["3", "4"])
def test_pipeline_shard_plan_needs_order5(order, tmp_path, capsys):
    out = tmp_path / "p"
    argv = ["pipeline", "--order", order, "--out-dir", str(out), "--shard-value", "1,2"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: stage=pipeline ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["1,x", ""])
def test_pipeline_rejects_non_integer_shard_value(value, tmp_path, capsys):
    # A usage error naming the option, as `enumerate --shard-value x` is.
    out = tmp_path / "p5"
    argv = ["pipeline", "--order", "5", "--out-dir", str(out), "--long-run"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--shard-value", value])
    assert exc.value.code == 2
    expected = f"argument --shard-value: expected comma-separated integers, got {value!r}"
    assert capsys.readouterr().err.endswith(f"{expected}\n")
    assert not out.exists()


@pytest.mark.parametrize("order", ["3", "4"])
def test_pipeline_long_run_needs_order5(order, tmp_path, capsys):
    out = tmp_path / "p"
    with pytest.raises(ValueError, match="order 5 only"):
        run_pipeline(int(order), out, long_run=True, log=lambda m: None)
    argv = ["pipeline", "--order", order, "--out-dir", str(out), "--long-run"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: stage=pipeline ")
    assert not out.exists()


@pytest.mark.parametrize("order", ["3", "4"])
def test_enumerate_long_run_needs_order5(order, tmp_path, capsys):
    out = tmp_path / "cat.txt"
    argv = ["enumerate", "--order", order, "--long-run", "--out", str(out)]
    assert main(argv) == 1
    assert "--long-run applies to order 5 only" in capsys.readouterr().err
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
        (1, 2, 13, 24, 3, 22),
        (1, 2, 13, 24, 4, 21),
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


def test_pipeline_order5_reads_a_generator_plan_once(tmp_path):
    # The plan is checked, then laid out, run and reported from the checked
    # tuple, so a generator gives what the same plan as a list does.
    def run(name, shards):
        return run_pipeline(5, tmp_path / name, long_run=True, shards=shards, log=lambda m: None)

    listed = run("list", ORDER5_PLAN)
    generated = run("gen", iter(ORDER5_PLAN))
    assert generated.square_count == listed.square_count > 0
    for name in ("report.json", "manifest.txt"):
        assert (tmp_path / "gen" / name).read_text() == (tmp_path / "list" / name).read_text()


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
    "repeated": [(13, 1, 2, 24, 3, 14, 16, 12)] * 2,
    "nested": [(13, 1, 2, 24, 3, 14, 16), (13, 1, 2, 24, 3, 14, 16, 12)],
    "repeated_value": [(1, 1)],
    "out_of_range": [(26,)],
    "too_deep": [tuple(range(1, 16))],
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
        argv += ["--shard-value", ",".join(map(str, shard))]
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


def test_traced_order4_pipeline_matches_the_digest(tmp_path):
    # The benchmark's traced pipeline run, end to end in a fresh process:
    # the wrappers must leave every artifact byte-identical and record the
    # classification, orbit and enumeration spans.
    root = Path(__file__).resolve().parents[1]
    out_dir = tmp_path / "out"
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "traced_cli.py"),
            "--spans", str(spans_file), "--run-id", "smoke", "--first-id", "1",
            "--", "pipeline", "--order", "4", "--out-dir", str(out_dir),
        ],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert gates.artifact_digest(out_dir) == gates.PIPELINE_DIGEST
    names = {span["name"] for span in json.loads(spans_file.read_text())["spans"]}
    assert {
        "pipeline.classify_catalog",
        "pipeline.attach_orbits",
        "enumerator.iter_squares",
    } <= names
