"""Property test: the CLI ends in a documented exit code on any input file.

A drawn file of up to about six lines, shaped like one of the input formats
(vertices, polynomial terms, orbits, series coefficients, an operator) with
up to two stray lines of arbitrary tokens, goes to every subcommand that
reads a file.  Each call must return one of the exit codes 0-4 and raise
nothing: bad input is exit 2 with a message, never a traceback.  Sizes are
small and fixed, and a huge coordinate is refused with exit 2, so every
call ends quickly.
"""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weaklg.cli import main  # noqa: E402

ints = st.integers(-2, 3).map(str)
rationals = st.one_of(ints, st.sampled_from(["1/2", "-3/4"]))
tokens = st.one_of(
    rationals,
    st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
    st.sampled_from([":", ",", "#", "# dim", "dim", "order", "tdeg", "free", "fixed",
                     "choice", "a", "[model]", "2/0", "1_0", "٣", "99999999999999999999"]),
)
stray = st.lists(tokens, max_size=4).map(" ".join)
domains = st.sampled_from(["free", "fixed 1", "fixed -1/2", "choice 1 2", "choice"])


def joined(*parts):
    return st.tuples(*parts).map(" ".join)


@st.composite
def files(draw):
    n, m, r = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    point = st.lists(ints, min_size=n, max_size=n).map(" ".join)
    row = st.lists(rationals, min_size=m + 1, max_size=m + 1).map(" ".join)
    lines = draw(st.one_of(
        st.lists(point, max_size=6),
        st.lists(joined(rationals, st.just(":"), point), max_size=6),
        st.lists(joined(point, st.just(":"), st.sampled_from("ab"), st.just(":"), domains),
                 max_size=6),
        st.lists(rationals, max_size=6).map(lambda cs: [f"{i} {c}" for i, c in enumerate(cs)]),
        st.lists(row, min_size=r + 1, max_size=r + 1).map(
            lambda rows: [f"order {m}, tdeg {r}"] + rows),
    ))
    if draw(st.booleans()):
        lines.insert(0, f"# dim {n}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray))
    return "\n".join(lines) + "\n"


def commands(path):
    return [
        ["series", "-f", path, "-N", "6"],
        ["series", "-f", path, "-N", "9", "--mitm"],
        ["solve", "-L", path, "-N", "6"],
        ["fit", "-s", path, "-m", "1", "-r", "1"],
        ["polytope", "-p", path],
        ["polytope", "-f", path],
        ["verify", "-f", path, "--catalog", "V16", "-N", "4"],
        ["verify", "-f", path, "-L", path, "-N", "4"],
        ["search", "-a", path, "--catalog", "V16", "--prime", "5", "--height", "2",
         "--depth", "2", "--verify-depth", "4"],
        ["search", "-a", path, "-s", path, "--prime", "3", "--height", "2", "--depth", "2"],
    ]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(files())
def test_every_subcommand_exits_0_to_4_on_arbitrary_files(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in commands(path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in range(5), (argv, text, code, err.getvalue())
