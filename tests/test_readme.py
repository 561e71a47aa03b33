import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_six_finite_rows(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for k, line in enumerate(lines):
        fields = line.split()
        assert int(fields[0]) == k
        assert len(fields) == 3 and all(math.isfinite(float(value)) for value in fields[1:])
