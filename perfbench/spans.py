"""Spans around the public functions of the ``guided_attention`` layers.

The benchmark times the program from outside: :func:`install` replaces each
public function of the traced modules, in every module namespace that binds
it, with a wrapper that records a span (name, start, end, parent, info) in
the tracer's in-memory list; the returned callable restores the originals.
The wrappers pass arguments and results through untouched and draw no
random numbers, so a wrapped run computes bit-identical results.

``full=False`` wraps only the few entry points the end-to-end metrics need
(batching, train, evaluate, the forward pass and the bounds of a training
step); ``full=True`` wraps every public function, for per-layer self times
and counts.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
from time import perf_counter

import numpy as np

LAYERS = ("corpus", "masks", "attention", "autodiff", "model", "checkpoint", "harness", "synthetic")
# Called once per token or per operand inside other traced calls: wrapping
# them would multiply the tracing overhead and add no layer boundary.
UNTRACED = frozenset({"autodiff.as_tensor", "corpus.strip_deprel"})
ENTRY_POINTS = frozenset({
    "corpus.make_batches", "model.train", "model.evaluate", "model.forward_batch",
    "autodiff.zero_grads", "model.Adam.step",
})
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """In-memory span list; spans nest by call order on one stack."""

    def __init__(self, on_return=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.on_return = on_return  # called as on_return(name, args, kwargs) after each wrapped call

    def begin(self, name: str) -> int:
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.parent(), None]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = perf_counter()
        return index

    def parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def end(self, index: int) -> None:
        now = perf_counter()
        while self._stack:  # also closes spans an exception left open inside this one
            top = self._stack.pop()
            self.spans[top][END] = now
            if top == index:
                return

    def call(self, name: str, fn, args, kwargs, info_of=None):
        index = self.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end(index)
        if info_of is not None:
            self.spans[index][INFO] = info_of(args, kwargs, out)
        if self.on_return is not None:
            self.on_return(name, args, kwargs)
        return out

    def write(self, path) -> None:
        """Tab-separated spans, one a line: id, parent, name, start and end in microseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START] * 1e6:.3f}\t{s[END] * 1e6:.3f}\n")


def _shape(x) -> tuple[int, ...]:
    return np.shape(getattr(x, "data", x))


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _batches_info(args, kwargs, batches):
    valid = sum(int(b.lengths.sum()) for b in batches)
    buffer = sum(int(b.token_ids.size) for b in batches)
    return len(_arg(args, kwargs, 0, "sentences")), valid, buffer


def _mask_key(args, kwargs, _out):
    sentence = _arg(args, kwargs, 1, "sentence")
    return tuple((t.form, t.head, t.deprel) for t in sentence.tokens)


def _attention_info(args, kwargs, _out):
    mask = _arg(args, kwargs, 3, "mask")
    values = getattr(mask, "values", mask)
    shape = _shape(_arg(args, kwargs, 0, "q"))
    elems = int(np.prod(shape[:-1])) * _shape(_arg(args, kwargs, 1, "k"))[-2]
    return elems, np.count_nonzero(values == 0.0) * (elems // values.size)


def _matmul_flops(args, kwargs, _out):
    a, b = _shape(_arg(args, kwargs, 0, "a")), _shape(_arg(args, kwargs, 1, "b"))
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return 2 * int(np.prod(batch)) * a[-2] * a[-1] * b[-1]


def _train_info(args, kwargs, ckpt):
    cfg, sentences = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "train_sentences")
    return len(sentences) * cfg.epochs, ckpt


def _evaluate_info(args, kwargs, metrics):
    sentences = _arg(args, kwargs, 1, "sentences")
    return len(sentences), sum(s.label is not None for s in sentences), metrics


def _saved_bytes(args, kwargs, _out):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _loaded_bytes(args, kwargs, _out):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


INFO_OF = {
    "corpus.make_batches": _batches_info,
    "masks.build_role_mask": _mask_key,
    "attention.masked_attention": _attention_info,
    "autodiff.matmul": _matmul_flops,
    "model.train": _train_info,
    "model.evaluate": _evaluate_info,
    "checkpoint.save_checkpoint": _saved_bytes,
    "checkpoint.load_checkpoint": _loaded_bytes,
    "harness.run_single": lambda args, kwargs, out: out,
}


def _wrapper(tracer: Tracer, name: str, fn):
    info_of = INFO_OF.get(name)
    if name == "masks.build_role_mask":
        def wrapper(*args, **kwargs):
            role = _arg(args, kwargs, 0, "role")
            return tracer.call(f"{name}.{role}", fn, args, kwargs, info_of)
    elif name == "autodiff.layer_norm":
        # An encoder layer calls layer_norm twice, norm1 then norm2, so the
        # calls under one parent span alternate between the two. The
        # feed-forward block between them has no function of its own, so it
        # gets a span from the end of norm1 to the start of norm2.
        state = {"parent": None, "calls": 0, "ff": None}

        def wrapper(*args, **kwargs):
            parent = tracer.parent()
            if parent not in (state["parent"], state["ff"]):
                state.update(parent=parent, calls=0, ff=None)
            stage = "norm1" if state["calls"] % 2 == 0 else "norm2"
            state["calls"] += 1
            if stage == "norm2" and state["ff"] is not None:
                tracer.end(state["ff"])
                state["ff"] = None
            out = tracer.call(f"{name}.{stage}", fn, args, kwargs)
            if stage == "norm1":
                state["ff"] = tracer.begin("model.fwd.ff")
            return out
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, info_of)
    wrapper.__wrapped__ = fn
    return wrapper


def _package_modules():
    package = importlib.import_module("guided_attention")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            modules.append(importlib.import_module(f"guided_attention.{info.name}"))
    return modules


def install(tracer: Tracer, full: bool):
    """Wrap the traced functions everywhere they are bound; return a function that undoes it."""
    from guided_attention.model import Adam

    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"guided_attention.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not attr.startswith("_") and name not in UNTRACED
                and (full or name in ENTRY_POINTS)
            ):
                wrappers[obj] = _wrapper(tracer, name, obj)

    patched = []
    for module in _package_modules():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    step = Adam.step
    patched.append((Adam, "step", step))
    Adam.step = _wrapper(tracer, "model.Adam.step", step)

    def restore():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore
