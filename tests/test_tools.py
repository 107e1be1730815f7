"""The counting rule of tools/code_lines.py, which the line counts of the
library are reported with, and a smoke run of tools/cone_timing.py."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_path = TOOLS / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _path)
code_lines_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines_tool)


def count(source):
    return code_lines_tool.code_lines(textwrap.dedent(source))


def test_blank_and_comment_lines_do_not_count():
    assert count("""
        # a comment

        x = 1
            # an indented comment

        y = 2
        """) == 2


def test_module_class_and_function_docstrings_do_not_count():
    assert count('''
        """Module docstring
        over two lines."""


        class A:
            """Class docstring."""

            def f(self):
                """Method docstring,
                also over two lines.
                """
                return 1


        def g():
            """Function docstring."""
            return 2
        ''') == 5


def test_other_string_literals_count_as_code():
    assert count('''
        def f():
            x = 1
            """Not a docstring: it does not open the body."""
            return x
        ''') == 4


def test_each_line_of_a_multi_line_statement_counts():
    assert count("""
        total = (1 +
                 2 +
                 3)
        call(a,

             b)
        """) == 5


def test_code_with_a_trailing_comment_counts_once():
    assert count("""
        x = 1  # one
        y = [2,  # two
             3]  # three
        """) == 3


def test_cone_timing_times_every_primitive_on_every_shape():
    """One call per timing: a header of the eight timed calls, then one
    line per product with a positive time for each."""
    out = subprocess.run([sys.executable, str(TOOLS / "cone_timing.py"),
                          "--number", "1", "--repeat", "1"],
                         capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split()[3:] == ["nt_scaling", "block_apply", "block_solve",
                                  "scaling_apply", "scaling_solve",
                                  "jordan_product", "jordan_solve", "step"]
    assert [row.split()[0] for row in rows] == [
        "25xQ5", "100xQ5", "25xQ17", "1xQ4097", "64xQ3", "R^65536"]
    for row in rows:
        times = [float(t) for t in row.split()[1:]]
        assert len(times) == 8 and min(times) > 0.0
