"""The serial map over the lemma pairs of ``envelope.verify_lemma_integrals``.

It stays a function of its own only because the benchmark's per-layer tracer
times it as a span.
"""
from __future__ import annotations

from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def ordered_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    return [fn(item) for item in items]
