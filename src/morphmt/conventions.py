"""Text conventions every stage shares: lines, tokens, representation modes and BPE budgets.

:mod:`morphmt.pipeline` encodes the modes, :mod:`morphmt.interleave`
walks them.  This module imports nothing, so the command line can build
its parser and read its inputs without loading the library.
"""

MODE_BASELINE = "baseline"
MODE_MORPHGEN = "morphgen"
MODE_SERIALIZATION = "serialization"
MODE_GERMAN_STEMMED = "german-stemmed"
MODES = (MODE_BASELINE, MODE_MORPHGEN, MODE_SERIALIZATION, MODE_GERMAN_STEMMED)

MODE_GERMAN_STEMMED_SPLIT = "german-stemmed-split"
PIPELINE_MODES = MODES + (MODE_GERMAN_STEMMED_SPLIT,)

# Default BPE merge budgets of the Czech and the German systems.
CZECH_DEFAULT_MERGES = 49500
GERMAN_DEFAULT_MERGES = 29500


def split_lines(text: str) -> list[str]:
    """Cut text into lines: a line ends at ``\\n``, and ``\\r\\n`` is one line end.

    Unlike :meth:`str.splitlines`, a lone ``\\r``, form feed, U+0085,
    U+2028 and the other Unicode separators are line content, so a line
    that contains one is never cut in two.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


# The characters that separate tokens within a line, and the only ones
# a stage trims off a line, a config key or a config value.
TOKEN_SEPARATORS = " \t\r"


def tokenize(line: str) -> list[str]:
    """Cut a line into tokens: maximal runs of characters other than
    :data:`TOKEN_SEPARATORS`, space (U+0020), tab and ``\\r``.

    Unlike :meth:`str.split`, form feed, U+0085, U+00A0, U+2028 and the
    other Unicode spaces are token content.  ``\\r`` separates because
    :func:`split_lines` reads ``\\r\\n`` as one line end, so a token
    ending in ``\\r`` could not survive a written line.
    """
    return list(filter(None, line.replace("\t", " ").replace("\r", " ").split(" ")))
