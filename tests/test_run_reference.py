"""The per-seed rows, medians and paired differences that
scripts/run_reference.py reports."""

import importlib.util
import os
from types import SimpleNamespace

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_reference.py")


@pytest.fixture(scope="module")
def run_reference():
    spec = importlib.util.spec_from_file_location("run_reference", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(*rows):
    return {"runs": [{"seed": seed, "map": m, "micro_ap": micro} for seed, m, micro in rows]}


class TestPairedDifferences:
    def test_hand_made_table(self, run_reference):
        table = {
            "base": runs((0, 0.50, 0.25), (1, 0.75, 0.5)),
            # listed in another seed order: pairing is by seed
            "quadlinear": runs((1, 0.5, 0.75), (0, 0.625, 0.125)),
            "triplet": runs((0, 0.5, 0.25), (1, 1.0, 0.5)),
        }
        assert run_reference.paired_differences(table) == {
            "quadlinear": {"map": [0.125, -0.25], "micro_ap": [-0.125, 0.25]},
            "triplet": {"map": [0.0, 0.25], "micro_ap": [0.0, 0.0]},
        }

    def test_other_baseline(self, run_reference):
        table = {"a": runs((3, 0.5, 0.5)), "b": runs((3, 0.25, 0.75))}
        assert run_reference.paired_differences(table, baseline="b") == {
            "a": {"map": [0.25], "micro_ap": [-0.25]}
        }

    def test_missing_seed_raises(self, run_reference):
        table = {"base": runs((0, 0.5, 0.5), (1, 0.5, 0.5)), "full": runs((0, 0.5, 0.5))}
        with pytest.raises(KeyError):
            run_reference.paired_differences(table)


def result(seed, initial, final):
    """A hand-made TrainResult: what summarize reads of one, with (mAP,
    micro-AP) of the initial and the final model."""
    return SimpleNamespace(
        config=SimpleNamespace(seed=seed),
        initial_report=SimpleNamespace(map=initial[0], micro_ap=initial[1]),
        final_report=SimpleNamespace(map=final[0], micro_ap=final[1]),
    )


class TestSummarize:
    def test_rows_in_run_order_and_medians(self, run_reference):
        results = [result(4, (0.5, 0.25), (1.0, 0.75)), result(0, (0.25, 0.125), (0.5, 0.5)),
                   result(2, (0.75, 0.5), (0.75, 0.25))]
        assert run_reference.summarize(results) == {
            "runs": [
                {"seed": 4, "initial_map": 0.5, "initial_micro_ap": 0.25, "map": 1.0, "micro_ap": 0.75},
                {"seed": 0, "initial_map": 0.25, "initial_micro_ap": 0.125, "map": 0.5, "micro_ap": 0.5},
                {"seed": 2, "initial_map": 0.75, "initial_micro_ap": 0.5, "map": 0.75, "micro_ap": 0.25},
            ],
            "median_map": 0.75,
            "median_micro_ap": 0.5,
            "median_initial_map": 0.5,
        }

    def test_even_count_takes_the_mean_of_the_middle_two(self, run_reference):
        summary = run_reference.summarize([result(0, (0.5, 0.5), (0.25, 1.0)), result(1, (0.0, 0.5), (0.5, 0.5))])
        assert (summary["median_map"], summary["median_micro_ap"], summary["median_initial_map"]) == (0.375, 0.75, 0.25)
        assert all(type(value) is float for key, value in summary.items() if key != "runs")

    def test_summaries_feed_paired_differences(self, run_reference):
        table = {
            "base": run_reference.summarize([result(0, (0.5, 0.5), (0.5, 0.25)), result(1, (0.5, 0.5), (0.75, 0.5))]),
            "full": run_reference.summarize([result(0, (0.5, 0.5), (0.625, 0.25)), result(1, (0.5, 0.5), (0.5, 1.0))]),
        }
        assert run_reference.paired_differences(table) == {"full": {"map": [0.125, -0.25], "micro_ap": [0.0, 0.5]}}
