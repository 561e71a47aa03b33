import ast
import math
import pathlib
import re
import types

import amplab
from amplab import errors

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_six_finite_rows(capsys):
    code = library_example()
    exec(compile(code, f"{README}:Library", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for k, line in enumerate(lines):
        fields = line.split()
        assert int(fields[0]) == k
        assert len(fields) == 3 and all(math.isfinite(float(value)) for value in fields[1:])


def test_package_namespace_is_the_library_imports_and_the_exceptions():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "amplab"
        for alias in node.names
    }
    exceptions = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, Exception)}
    public = {
        name
        for name, value in vars(amplab).items()
        if not (name.startswith("_") or isinstance(value, types.ModuleType))  # submodules appear once imported
    }
    assert len(imported) == 13 and len(exceptions) == 8
    assert public == imported | exceptions
    assert amplab.__version__ == "0.1.0"
