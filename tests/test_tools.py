"""The counting rule of tools/code_lines.py, which the line counts of the
library are reported with."""

import importlib.util
import textwrap
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
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
