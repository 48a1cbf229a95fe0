"""In-process tracing of morphmt's public functions.

The tracer measures each layer from outside: it replaces every public
function of the traced modules by a wrapper, in the defining module and in
every ``morphmt`` module that imported it by name (``pipeline``,
``interleave``, ``compounds`` and ``cli`` each hold their own bindings).
A wrapper records a span (id, parent id, name, start, end) per call and
counts calls and raised exceptions.  Functions that take about a
microsecond or less (the ``is_*``, ``parse_*`` and ``format_*`` helpers)
are counted only, since timing them would cost more than they do.

Spans stay in memory and are written once, by :meth:`Tracer.write`.  The
benchmark's own helpers that call the library (set-up, correctness checks,
the ``--jobs`` timing) run only while the wrappers are not installed, so
they never pollute the per-layer numbers.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

TRACED_MODULES = ("tagsets", "morphlex", "interleave", "bpe", "compounds", "pipeline", "evaluation")


def _counted_only(name: str) -> bool:
    short = name.rsplit(".", 1)[1]
    return short.startswith(("is_", "parse_", "format_")) or short in ("generate", "strip_markup")


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        # Tallies kept by the argument and result hooks below.
        self.tally: Counter[str] = Counter()
        self.apply_bpe_tokens: set[str] = set()
        self.lexicon_documents: list[str] = []
        self.learn_bpe_types: list[int] = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of the traced modules of ``package``."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(package.__name__):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span around code that is not a wrapped function (a CLI stage)."""
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))
        calls, raised, spans, stack, ids = self.calls, self.raised, self.spans, self._stack, self._ids
        clock = time.perf_counter
        tracer = self

        if _counted_only(name):
            def counted(*args, **kwargs):
                calls[name] += 1
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    raised[name] += 1
                    raise
                if after is not None:
                    after(tracer, args, result)
                return result

            wrapper = counted
        else:
            def timed(*args, **kwargs):
                calls[name] += 1
                if before is not None:
                    args = before(tracer, args)
                sid, parent = next(ids), stack[-1]
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    raised[name] += 1
                    raise
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, parent, name, start, end))
                if after is not None:
                    after(tracer, args, result)
                return result

            wrapper = timed
        wrapper.__name__, wrapper.__qualname__ = fn.__name__, fn.__qualname__
        wrapper.__module__, wrapper.__doc__ = fn.__module__, fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self) -> None:
        """Forget the counts and tallies (spans are kept until written)."""
        self.calls.clear()
        self.raised.clear()
        self.tally.clear()
        self.apply_bpe_tokens.clear()
        self.lexicon_documents.clear()
        self.learn_bpe_types.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps(
                    {"run": self.run_id, "id": sid, "parent": parent,
                     "name": name, "start": start, "end": end}
                ) + "\n")

    # -- summarising --------------------------------------------------------

    def times(self, since: int = 0) -> tuple[Counter[str], Counter[str]]:
        """Total and self time per span name, over spans from index ``since`` on.

        Self time is a span's duration minus the time its direct child
        spans cover.
        """
        spans = self.spans[since:]
        child = Counter()
        for _, parent, _, start, end in spans:
            child[parent] += end - start
        total, self_time = Counter(), Counter()
        for sid, _, name, start, end in spans:
            total[name] += end - start
            self_time[name] += end - start - child[sid]
        return total, self_time


# Argument and result hooks: (before(tracer, args) -> args, after(tracer, args, result)).


def _learn_before(tracer: Tracer, args: tuple) -> tuple:
    tokens = args[0] if isinstance(args[0], (list, tuple)) else list(args[0])
    tracer.learn_bpe_types.append(len(set(tokens)))
    return (tokens,) + args[1:]


def _learn_after(tracer: Tracer, args: tuple, result) -> None:
    tracer.tally["bpe.learn_bpe.merges"] += len(result)


def _apply_before(tracer: Tracer, args: tuple) -> tuple:
    tracer.apply_bpe_tokens.add(args[1])
    return args


def _segment_before(tracer: Tracer, args: tuple) -> tuple:
    tracer.tally["tokens"] += len(args[1].split())
    return args


def _revert_after(tracer: Tracer, args: tuple, result) -> None:
    tracer.tally["tokens"] += len(result)


def _load_before(tracer: Tracer, args: tuple) -> tuple:
    tracer.lexicon_documents.append(args[0])
    return args


def _generate_after(tracer: Tracer, args: tuple, result) -> None:
    if not isinstance(result, str):
        tracer.tally["morphlex.generate.failures"] += 1


def _merge_before(tracer: Tracer, args: tuple) -> tuple:
    tracer.tally["compounds.modifiers"] += len(args[0].modifier_lexemes)
    if len(args) > 2 and args[2] is not None:
        tracer.tally["compounds.unknown_before"] += len(args[2])
    return args


def _merge_after(tracer: Tracer, args: tuple, result) -> None:
    if len(args) > 2 and args[2] is not None:
        tracer.tally["compounds.unknown_after"] += len(args[2])


def _bleu_before(tracer: Tracer, args: tuple) -> tuple:
    tracer.tally["evaluation.bleu.sentences"] += len(args[0])
    return args


_HOOKS = {
    "bpe.learn_bpe": (_learn_before, _learn_after),
    "bpe.apply_bpe": (_apply_before, None),
    "bpe.segment_line": (_segment_before, None),
    "bpe.revert_bpe": (None, _revert_after),
    "morphlex.load_lexicon": (_load_before, None),
    "morphlex.generate": (None, _generate_after),
    "compounds.merge_compound": (_merge_before, _merge_after),
    "evaluation.bleu": (_bleu_before, None),
}
