"""The Python examples of README.md, run as one doctest in reading order."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_give_the_shown_output():
    # only the fenced python blocks: a plain doctest of the file would read
    # each closing fence as expected output
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    assert test.examples
    report = []
    failed, _ = doctest.DocTestRunner().run(test, out=report.append)
    assert failed == 0, "".join(report)
