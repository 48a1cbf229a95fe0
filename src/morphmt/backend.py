"""The external translation backend: run it over prepared lines.

This module imports only :mod:`morphmt.conventions`, and ``subprocess``
when a backend runs, so the ``translate`` stage starts without loading
the library.  The package namespace :mod:`morphmt` exports both names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .conventions import split_lines

if TYPE_CHECKING:
    from typing import Callable, Sequence

__all__ = ["BackendFailure", "translate_external"]


class BackendFailure(RuntimeError):
    """The external translation backend misbehaved."""


def translate_external(
    lines: list[str],
    backend: Sequence[str] | Callable[[list[str]], list[str]],
) -> list[str]:
    """Run the translation backend over prepared lines.

    ``backend`` is either a callable (for in-process mocks) or an argv
    sequence for a process that reads input lines on stdin and writes
    exactly one output line per input line to stdout, in UTF-8.  The
    identity backend ``["cat"]`` is supported for testing.  Raises
    :class:`BackendFailure` on an empty argv, nonzero exit, output that
    is not UTF-8 or line-count mismatch.
    """
    if callable(backend):
        output = list(backend(list(lines)))
    elif not backend:
        raise BackendFailure("empty backend command")
    else:
        import subprocess  # only the translate stage runs a backend

        # Bytes, not text mode: text mode would read a lone \r as a line end.
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        try:
            proc = subprocess.run(list(backend), input=data, capture_output=True)
        except OSError as exc:
            raise BackendFailure(f"cannot run backend {backend!r}: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip(" \t\r\n")
            raise BackendFailure(f"backend exited with {proc.returncode}: {stderr}")
        try:
            text = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BackendFailure(f"backend wrote invalid UTF-8 at byte {exc.start}") from exc
        output = split_lines(text)
    if len(output) != len(lines):
        raise BackendFailure(
            f"backend wrote {len(output)} lines for {len(lines)} inputs"
        )
    return output
