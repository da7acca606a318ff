"""The README's "Library use" snippet runs as written, and its metric
formulas are the ones the kernel computes."""

import argparse
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_outcome

from altlab import cli
from altlab.analysis import synth_pa_mixture
from altlab.game import GameConfig
from altlab.metrics import VARIANTS, window_betas
from altlab.policies import run_random

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(snippet, f"{README}:Library use", "exec"), {})


def test_command_table_names_only_flags_that_exist():
    """Every ``--flag`` in a row's "notable flags" cell of the "Commands"
    table is an option of that subcommand's parser."""
    section = README.read_text(encoding="utf-8").split("## Commands", 1)[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \|[^|]*\|([^|]*)\|$", section, re.MULTILINE)
    commands = next(
        a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert [command for command, _ in rows] == list(commands)
    for command, cell in rows:
        options = {s for a in commands[command]._actions for s in a.option_strings}
        assert set(re.findall(r"--[a-z][a-z-]*", cell)) - options == set(), command


def _python(formula: str) -> str:
    """A README formula as a Python expression over the window counts."""
    for symbol, text in {"τ": "tau", "·": "*", "²": "**2", "−": "-", "y_ℓ": "y"}.items():
        formula = formula.replace(symbol, text)
    # Σ(x) sums x over the window's episodes; n(x) is n times x.
    formula = re.sub(r"Σ\(([^()]*)\)", r"sum(\1 for y in ys)", formula)
    return formula.replace("n(", "n*(")


def readme_formulas() -> dict[str, tuple[str, bool]]:
    """Score -> (expression, clamped to <= 1), in the order of the table in
    "The metrics"."""
    section = README.read_text(encoding="utf-8").split("## The metrics", 1)[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)`([^|]*)\|", section, re.MULTILINE)
    return {name: (_python(formula), "clamped to ≤ 1" in rest) for name, formula, rest in rows}


def readme_scores(window, n: int) -> dict[str, Fraction]:
    """The README's per-window scores, in exact arithmetic, of counts taken
    from their definitions; a window with no arrivals scores 0."""
    sole = [a for ep in window if len(ep.arrivals) == 1 for a in ep.arrivals]
    counts = {
        "f": Fraction(len(set().union(*(ep.arrivals for ep in window)))),
        "tau": Fraction(sum(len(ep.arrivals) for ep in window)),
        "w": Fraction(len(sole)),
        "g": Fraction(sum(sole.count(a) == 1 for a in set(sole))),
        "n": Fraction(n),
        "ys": [len(ep.arrivals) for ep in window],
    }
    if counts["tau"] == 0:
        return dict.fromkeys(VARIANTS, Fraction(0))
    scores = {}
    for name, (expression, clamped) in readme_formulas().items():
        value = eval(expression, {"__builtins__": {"sum": sum}, **counts, **scores})
        scores[name] = min(Fraction(1), value) if clamped else value
    return scores


def _ties_and_capped():
    arrivals = [{0}, {1, 2}, set(), {0, 1, 2}, {2}, set(), {1}, {0, 2}, {0}, {0}, {1}, {2}]
    return [make_outcome(e, 3, a) for e, a in enumerate(arrivals)]


@pytest.mark.parametrize(
    "n, log",
    [
        (4, synth_pa_mixture(3, 4, 14)),
        (3, _ties_and_capped()),
        (4, run_random(GameConfig(n_agents=4, step_cap=3), 60, seed_or_rng=11)),
    ],
    ids=["fixed-rotation", "ties-and-capped", "seeded-random"],
)
def test_readme_formulas_match_the_kernel(n, log):
    assert tuple(readme_formulas()) == VARIANTS
    betas = window_betas(log, n)
    for i in range(len(log) - n + 1):
        want = readme_scores(log[i : i + n], n)
        for variant in VARIANTS:
            assert betas[variant][i] == pytest.approx(float(want[variant]), abs=1e-12), (i, variant)
