"""The paper's published numbers, gated in tier-1.

Each case replays one full small-scale paper pass -- Figures 1-7, the
headline claims, the scalability study and both ablations -- through the
benchmark's own ``perfbench/paper.run_pass`` on an empty SQLite store,
and compares the digest of every rendered table (host-time columns
excluded) with the pin recorded in ``perfbench/pins.json``.  Any kernel,
engine or simplification change that shifts a published number fails
here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SMALL_PINS = json.loads((PERFBENCH / "pins.json").read_text())["paper"]["small"]


@pytest.fixture(scope="module")
def paper():
    """``perfbench/paper.py`` as a module (it imports its sibling ``ledger``)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_paper", PERFBENCH / "paper.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolve their module through sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("key", sorted(SMALL_PINS))
def test_small_paper_pass_matches_its_pin(paper, tmp_path, key):
    blastn, drr, frag = (int(part) for part in key.split(","))
    seeds = {"blastn": blastn, "drr": drr, "frag": frag}
    result = paper.run_pass(str(tmp_path / "results.sqlite"), seeds, "small")
    assert result.problems == []
    assert result.digest == SMALL_PINS[key]
