"""The Python example of README.md, run as a doctest, and its file format
examples, loaded through ``matvines.io``."""

import doctest
import re
from pathlib import Path

from matvines import (ForestSequence, LabeledGraph, VineClass, VinePoset,
                      classify, from_forest_sequence)
from matvines.io import load_structure

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example():
    # the fenced block alone: `python -m doctest README.md` would read the
    # closing fence as expected output
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md",
                                               str(README), 0)
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.attempted >= 6
    assert result.failed == 0, "".join(report)


def test_readme_format_examples_load(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    loaded = []
    for i, block in enumerate(blocks):
        path = tmp_path / f"example{i}.json"
        path.write_text(block)
        loaded.append(load_structure(path))
    graph, vine, forests = loaded
    assert isinstance(graph, LabeledGraph) and graph.labels == {("v1", "v2"): 1}
    assert isinstance(vine, VinePoset) and vine.covers_of["12"] == ("1", "2")
    assert isinstance(forests, ForestSequence)
    built = from_forest_sequence(forests)
    assert len(built.nodes) == 6 and classify(built).kind == VineClass.R_VINE
