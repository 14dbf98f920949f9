"""The tree-against-tree answer check, on synthetic output directories."""
import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answers.py"
_spec = importlib.util.spec_from_file_location("answers", TOOL)
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)

CSV = "t_s,f_N\n0,1.5\n0.001,2.25\n0.002,\n"


def _tree(root: Path, output_dir: str, csv_text: str = CSV) -> Path:
    run = root / "run"
    run.mkdir(parents=True)
    (run / "trace.csv").write_text(csv_text)
    (run / "chart.svg").write_text("<svg/>\n")
    (run / "manifest.json").write_text(json.dumps(
        {"files": ["chart.svg", "trace.csv"], "output_dir": output_dir}))
    return root


def test_identical_trees_report_every_file_identical(tmp_path):
    # each manifest is compared without its output_dir
    result = answers.compare(_tree(tmp_path / "a", "a/run"),
                             _tree(tmp_path / "b", "b/run"))
    assert (result["compared"], result["identical"]) == (3, 3)
    assert result["svgs_differ"] == []
    assert result["largest_csv_rel"] == 0.0
    assert answers.summary_line(result).endswith(
        "3 files compared, 3 byte-identical by SHA-256 (manifests without "
        "output_dir), 0 SVGs differ, largest relative CSV difference 0")


def test_a_one_ulp_cell_is_reported_with_its_file_column_and_row(tmp_path):
    bumped = math.nextafter(2.25, 3.0)
    result = answers.compare(
        _tree(tmp_path / "a", "run"),
        _tree(tmp_path / "b", "run", CSV.replace("2.25", repr(bumped))))
    assert (result["compared"], result["identical"]) == (3, 2)
    assert result["largest_csv_rel"] == (bumped - 2.25) / bumped
    assert result["at"] == ("run/trace.csv", "f_N", 2)
    assert answers.summary_line(result).endswith(
        "largest relative CSV difference 1.97e-16 at run/trace.csv column f_N "
        "row 2")


def test_the_corpus_holds_the_benchmark_batches_of_two_seeds():
    runs = answers.corpus()
    workloads = answers._workloads()
    for workload in workloads.WORKLOADS:
        for seed in answers.BENCH_SEEDS:
            batch = workloads.batch(workload, seed)
            mine = [cfg for name, cfg in runs.items()
                    if name.startswith(f"{workload}_{seed}_")]
            assert [{k: v for k, v in cfg.items() if k != "out"}
                    for cfg in mine] == batch
    assert len({cfg["out"] for cfg in runs.values()}) == len(runs)
