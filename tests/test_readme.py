"""The README's "Library use" block runs as written and gives its stated values."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs_as_written():
    scope: dict = {}
    exec(compile(_library_block(), str(README), "exec"), scope)
    pn, cert, spectrum = scope["pn"], scope["cert"], scope["spectrum"]
    # the values in the block's comments
    assert round(scope["eta"], 4) == 0.6218
    theorem2 = pn.theorem3_check(cert, c=10.0, lambda1=spectrum.lambda1, alpha=1.0)
    assert round(theorem2.margin, 3) == -0.111
    assert round(pn.min_coupling_strength(cert, spectrum), 4) == 9.8898
    assert scope["ladder"] == {"pinned-spectrum negativity": True, "theorem2": True}
    assert round(scope["report"].min_c, 4) == 9.8898
    runs = scope["runs"]
    assert len(runs) == 3 and all(isinstance(run, pn.Trajectory) for run in runs)
