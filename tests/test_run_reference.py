"""The paired per-seed differences that scripts/run_reference.py reports."""

import importlib.util
import os

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
