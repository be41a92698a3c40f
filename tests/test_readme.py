"""The README's config examples and vocabulary lists agree with the parser."""

import re
from itertools import takewhile
from pathlib import Path

from ncparab.config import RunConfig, build_problem
from ncparab.errors import ConfigError
from ncparab.presets import PRESETS
from tests.conftest import EXAMPLES

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_blocks():
    """The README's fenced blocks without a language tag: its config examples."""
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    return [body for language, body in fenced if not language]


def _listed(key):
    """The names in the comment after ``key = ...`` in a config block; the
    comment-only lines below it continue the list."""
    for block in _config_blocks():
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith(f"{key} ="):
                rest = takewhile(lambda text: text.lstrip().startswith("#"), lines[i + 1 :])
                comments = [text.split("#", 1)[1] for text in [line, *rest]]
                return [name.strip() for name in " ".join(comments).split("|")]
    raise AssertionError(f"no {key} comment in the README")


def test_every_readme_config_block_builds():
    blocks = _config_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        build_problem(RunConfig.from_text(block))


def test_readme_preset_names_are_the_presets():
    assert sorted(_listed("problem.preset")) == sorted([*PRESETS, "inline"])


def test_readme_preset_table_is_the_presets():
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (\d+), (\d+), (\d+) \|$", README.read_text(), re.M)
    assert sorted(name for name, *_ in rows) == sorted(PRESETS)
    for name, values, resolution, k, steps in rows:
        preset = PRESETS[name]
        listed = {f"problem_{key}": value for key, value in re.findall(r"`(\w+) = ([^`]*)`", values)}
        assert listed == {attr: str(value) for attr, value in preset.problem.items()}, name
        sizes = (preset.default_resolution, preset.default_k, preset.default_steps)
        assert (int(resolution), int(k), int(steps)) == sizes, name


def test_every_readme_u0_name_is_accepted(tmp_path):
    table = tmp_path / "u0.csv"
    table.write_text("x,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
    names = _listed("problem.u0")
    assert {"zero", "sine", "cosine", "z2"} <= set(names)
    for name in names:
        accepted = []
        for domain in ("interval(0,1)", "rectangle(0,1,0,1)"):
            cfg = RunConfig(
                problem_preset="inline",
                problem_domain=domain,
                problem_u0=name.replace("PATH", str(table)),
            )
            try:
                build_problem(cfg)
            except ConfigError:
                continue
            accepted.append(domain)
        assert accepted, name


def test_readme_example_paths_exist():
    named = set(re.findall(r"\bexamples/[\w./-]*\w", README.read_text()))
    assert named
    for path in named:
        assert (EXAMPLES.parent / path).is_file(), path


def test_every_example_is_in_the_readme_and_loads():
    text = README.read_text()
    examples = sorted(EXAMPLES.iterdir())
    assert examples
    for path in examples:
        assert f"examples/{path.name}" in text, path.name
        RunConfig.load(str(path))
