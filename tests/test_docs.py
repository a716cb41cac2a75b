"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    ndcg, log_lik = map(float, capsys.readouterr().out.split())
    assert 0.0 < ndcg <= 1.0
    assert log_lik < 0.0
