"""In-memory spans around the package's public calls, and the per-layer table.

Tracing patches a function under every name the loaded ``measure_attn``
modules bind it to, so a call is caught in the calling module's namespace
(``experiment.train``, ``optim.adam_step``, ...); methods are patched on
their class (``StudentModel.forward``).  Each call becomes a span
(name, start, end, parent) in a list that is written out when the run ends.
A span's self time is its duration minus the time covered by its children.

Pool workers forked by ``sweep`` inherit the patches; each worker writes the
spans of one cell to a file when the cell returns, and the parent merges them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, defining module, function or "Class.method") for every traced
# call.  Span names are "<layer>.<function>"; the private names are the stage
# and worker boundaries inside experiment.run_cell and experiment.sweep.
TARGETS = (
    ("spectrum.basis_matrix", "spectrum", "MercerSpectrum.basis_matrix"),
    ("spectrum.synth_density", "spectrum", "synth_density"),
    ("measures.sample_tokens", "measures", "sample_tokens"),
    ("measures.wasserstein1_1d", "measures", "wasserstein1_1d"),
    ("attention.softmax_weights", "attention", "softmax_weights"),
    ("attention.measure_attention", "attention", "measure_attention"),
    ("model.forward", "model", "StudentModel.forward"),
    ("model.backward", "model", "StudentModel.backward"),
    ("optim.train", "optim", "train"),
    ("optim.adam_step", "optim", "adam_step"),
    ("optim.evaluate", "optim", "evaluate"),
    ("experiment.gen_example", "experiment", "gen_example"),
    ("experiment._gen", "experiment", "_gen"),
    ("experiment.attention_mass_stats", "experiment", "attention_mass_stats"),
    ("experiment.query_shuffle_eval", "experiment", "query_shuffle_eval"),
    ("experiment.run_cell", "experiment", "run_cell"),
    ("experiment._sweep_cell_worker", "experiment", "_sweep_cell_worker"),
    ("experiment._write_bundle", "experiment", "_write_bundle"),
    ("experiment.sweep", "experiment", "sweep"),
    ("verify.run_suites", "verify", "run_suites"),
)
MODULES = ("spectrum", "measures", "attention", "model", "optim",
           "experiment", "verify")
WORKER_SPAN = "experiment._sweep_cell_worker"


def _context_tokens(args):
    return len(args[1])           # StudentModel.forward(self, context, query)


def _cache_tokens(args):
    return len(args[1].context)   # StudentModel.backward(self, cache, upstream)


TOKENS = {"model.forward": _context_tokens, "model.backward": _cache_tokens}


class Tracer:
    """Spans of one process: parallel lists indexed by span id."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.in_worker = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tokens: list[int] = []
        self._stack: list[int] = []
        self._spills = 0
        self.missing: list[str] = []

    def open(self, name: str, tokens: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tokens.append(tokens)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code that is not a package call."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        tokens_of = TOKENS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == WORKER_SPAN and os.getpid() != self.pid:
                self._forget_parent()
            idx = self.open(name, tokens_of(args) if tokens_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if self.in_worker and name == WORKER_SPAN:
                    self._spill()

        return traced

    def _clear(self) -> None:
        for lst in (self.names, self.starts, self.ends, self.parents,
                    self.tokens, self._stack):
            lst.clear()

    def _forget_parent(self) -> None:
        """In a freshly forked worker, drop the spans copied from the parent."""
        self.pid = os.getpid()
        self.in_worker = True
        self._clear()

    def _spill(self) -> None:
        """Write a worker's spans for one cell and start afresh."""
        path = os.path.join(self.spill_dir,
                            f"spans-{os.getpid()}-{self._spills}.json")
        self._spills += 1
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)
        self._clear()

    def to_dict(self) -> dict:
        return {"pid": os.getpid(), "names": self.names, "starts": self.starts,
                "ends": self.ends, "parents": self.parents, "tokens": self.tokens}

    def install(self) -> None:
        """Patch every target under each name a package module binds it to."""
        mods = [importlib.import_module(f"measure_attn.{m}") for m in MODULES]
        for name, mod_name, attr in TARGETS:
            home = importlib.import_module(f"measure_attn.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, fn)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)


def load_spills(spill_dir: str) -> list[dict]:
    out = []
    for fname in sorted(os.listdir(spill_dir)):
        if fname.startswith("spans-"):
            with open(os.path.join(spill_dir, fname)) as f:
                out.append(json.load(f))
    return out


def summarize(span_sets: list[dict]) -> dict:
    """Per span name: calls, inclusive and self seconds, tokens.

    Also returns the inclusive seconds of each span keyed by its parent's
    name, which separates e.g. a run_cell evaluate from the evaluate inside
    query_shuffle_eval.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    tokens = defaultdict(int)
    under = defaultdict(float)
    for s in span_sets:
        names, starts, ends, parents = s["names"], s["starts"], s["ends"], s["parents"]
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for i, name in enumerate(names):
            dur = ends[i] - starts[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            tokens[name] += s["tokens"][i]
            parent = names[parents[i]] if parents[i] >= 0 else ""
            under[(name, parent)] += dur
    return {"calls": calls, "incl": incl, "self": self_s, "tokens": tokens,
            "under": under}
