"""In-memory span tracer that wraps the layer calls ``gridbench.study`` makes.

Nothing under ``src/`` knows about tracing: ``Tracer.installed()`` replaces
the names ``study.py`` calls into (and the model classes' ``score``
methods) with timing wrappers, and restores the originals on exit. Spans
carry name, start, end, parent and dataset, stay in memory and are written
out by the caller when the benchmark ends.

``score`` calls are too many to keep one span each (tens of thousands per
study), so only top-level calls are counted; their rows and time are
credited to the innermost open span of the calling thread. A call is
top-level when no other ``score`` is running on the same thread: the
nesting depth is per thread, because a process-wide depth miscounts when
the study's thread pool scores on two threads at once.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager

import gridbench.models as gb_models
import gridbench.store as gb_store
import gridbench.study as gb_study

# Spans that only group other spans; coverage counts the layers under them.
CONTAINERS = ("study", "study.dataset")

# study.py names wrapped in a span, and the span's name.
STUDY_LAYERS = {
    "_build_dataset": "data.build",
    "split": "data.split",
    "fit_pipeline": "preprocess.fit",
    "apply_pipeline": "preprocess.apply",
    "_train_algorithm": "models.train",
    "classification_metrics": "metrics.classification",
    "explanation_metrics_suite": "metrics.explanation",
    "robustness_metrics_suite": "metrics.robustness",
    "compare": "stats.compare",
    "write_reports": "report.write",
}

SCORED_CLASSES = {
    "logreg": gb_models.LogisticRegressionModel,
    "tree": gb_models.DecisionTreeModel,
    "mlp": gb_models.MLPModel,
    "stack": gb_models.StackedEnsemble,
}


class Span:
    __slots__ = ("id", "name", "parent", "dataset", "start", "end",
                 "score_calls", "score_rows", "score_s", "result")

    def __init__(self, span_id, name, parent, dataset):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.dataset = dataset
        self.start = time.perf_counter()
        self.end = None
        self.score_calls = 0
        self.score_rows = 0
        self.score_s = 0.0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "dataset": self.dataset, "start": self.start - origin,
                "end": self.end - origin, "score_calls": self.score_calls,
                "score_rows": self.score_rows, "score_s": self.score_s}


class _ThreadState:
    def __init__(self):
        self.stack: list[Span] = []
        self.dataset = None
        self.score_depth = 0
        self.score_s_by_kind: Counter = Counter()


class Tracer:
    """Spans and counters of one traced study."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fits = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.root: Span | None = None  # the first span opened
        self.unattributed = Span(0, "unattributed", None, None)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    @contextmanager
    def span(self, name: str, dataset=None):
        state = self._state()
        if state.stack:
            parent = state.stack[-1]
        else:
            parent = self.root
        if dataset is None:
            dataset = state.dataset
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None, dataset)
        if self.root is None:
            self.root = span
        state.stack.append(span)
        outer_dataset, state.dataset = state.dataset, dataset
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            state.stack.pop()
            state.dataset = outer_dataset
            self.spans.append(span)  # list.append is atomic under the GIL

    # --- wrappers -------------------------------------------------------

    def _wrap_layer(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                span.result = fn(*args, **kwargs)
                return span.result
        return wrapper

    def _wrap_dataset(self, fn):
        @functools.wraps(fn)
        def wrapper(index, *args, **kwargs):
            with self.span("study.dataset", dataset=index):
                return fn(index, *args, **kwargs)
        return wrapper

    def _wrap_train(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.fits += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_build_explainer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            explain = fn(*args, **kwargs)
            return self._wrap_layer(explain, "explain.call")
        return wrapper

    def _wrap_score(self, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def score(model, X):
            state = tracer._state()
            state.score_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(model, X)
            finally:
                elapsed = time.perf_counter() - t0
                state.score_depth -= 1
                if kind != "stack":
                    state.score_s_by_kind[kind] += elapsed
                if state.score_depth == 0:
                    owner = state.stack[-1] if state.stack else tracer.unattributed
                    owner.score_calls += 1
                    owner.score_rows += len(X)
                    owner.score_s += elapsed
        return score

    @contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        patches = [(gb_study, name, self._wrap_layer(getattr(gb_study, name), span))
                   for name, span in STUDY_LAYERS.items()]
        patches += [
            (gb_study, "_evaluate_dataset",
             self._wrap_dataset(gb_study._evaluate_dataset)),
            (gb_study, "build_explainer",
             self._wrap_build_explainer(gb_study.build_explainer)),
            # train_stack looks ``train`` up in the models module; single
            # models are trained through the name study.py imported.
            (gb_models, "train", self._wrap_train(gb_models.train)),
            (gb_study, "train", self._wrap_train(gb_study.train)),
            (gb_store.DocumentStore, "save",
             self._wrap_layer(gb_store.DocumentStore.save, "store.save")),
        ]
        patches += [(cls, "score", self._wrap_score(cls.score, kind))
                    for kind, cls in SCORED_CLASSES.items()]
        originals = [(owner, name, owner.__dict__[name])
                     for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    # --- derived numbers ------------------------------------------------

    def score_s_by_kind(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.score_s_by_kind)
        return total

    def self_times(self) -> dict[int, float]:
        """Span duration minus its child spans and its direct score calls."""
        child = Counter()
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return {s.id: s.duration - child[s.id] - s.score_s for s in self.spans}

    def coverage(self) -> float:
        """Share of the root span's wall time during which a layer span is open."""
        root = self.root
        intervals = sorted((s.start, s.end) for s in self.spans
                           if s.name not in CONTAINERS)
        covered, reach = 0.0, root.start
        for start, end in intervals:
            start, end = max(start, reach), min(end, root.end)
            if end > start:
                covered += end - start
                reach = end
        return covered / root.duration
