"""Spans and counters around the public functions of whittak.

`Tracer.install()` replaces each traced function by a wrapper that records a
span (name, start, end, parent span, job id), in every namespace that binds
the function: the defining module and every caller that imported the name,
such as `whittak.wfinite.kernel_basis` or `whittak.cli.build_fock`. Methods
are replaced on their class. `Scalar` arithmetic is counted, not spanned.
`Tracer.uninstall()` puts every original back. Spans stay in memory until
`write_spans` stores them at the end of the run.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

from whittak import charfun, cli, exactlin, fockrep, serialize, superalg, takiff, wfinite

MODULES = (exactlin, superalg, takiff, fockrep, wfinite, charfun, serialize, cli)

# Public functions left unwrapped: per-term helpers whose wrapper would cost
# more than their body (the takiff form helpers run once per basis pair inside
# verify_takiff, which keeps their time as its own), and sort keys.
UNTRACED = {
    "exactlin.add_term",
    "exactlin.half",
    "exactlin.sign",
    "fockrep.add_term_mat",
    "fockrep.clifford_module_dim",
    "takiff.cocycle_alpha_d",
    "takiff.odd_form_prime",
    "takiff.theta_derivative",
    "wfinite.multiindex_key",
}

# Public methods traced on their class.
METHODS = (
    (exactlin.EchelonSpan, "add"),
    (exactlin.EchelonSpan, "coordinates"),
    (superalg.SuperAlgebra, "bracket"),
    (fockrep.FockModule, "apply_barred"),
    (fockrep.FockModule, "apply_lift"),
)

ELIM = (
    "exactlin.kernel_basis",
    "exactlin.solve",
    "exactlin.rank",
    "exactlin.invert",
    "exactlin.EchelonSpan.add",
    "exactlin.EchelonSpan.coordinates",
)

SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__")

MARK = "_perfbench_span"


def traced_functions():
    """(owner, attribute, span name) for every function the tracer wraps."""
    out = []
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in sorted(vars(mod).items()):
            span = f"{short}.{name}"
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)
                and span not in UNTRACED
            ):
                out.append((mod, name, span))
    for cls, name in METHODS:
        short = cls.__module__.rsplit(".", 1)[1]
        out.append((cls, name, f"{short}.{cls.__name__}.{name}"))
    return out


def _namespaces():
    """Modules of the package and of the benchmark that may bind a traced name."""
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "whittak" or name.startswith("whittak.") or name == "workloads")
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.job = -1
        self.counts = {
            "scalar_ops": 0,
            "scalar_int_ops": 0,
            "barred_actions": 0,
            "elim_nnz": 0,
            "elim_max_cols": 0,
            "serialize_bytes": 0,
        }
        self._barred_pairs: set = set()
        self._xkeys: dict = {}
        self._patches: list = []

    # -- spans ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_job.append(self.job)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, job: int):
        """A root span opened by the benchmark itself: set-up or one job."""
        self.job = job
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, span: str, fn, before=None, after=None):
        nid = self._id(span)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, span)
        return wrapper

    def _count_scalar(self, op):
        counts = self.counts

        def counted(a, b):
            counts["scalar_ops"] += 1
            try:
                if (
                    a.re.denominator == 1
                    and a.im.denominator == 1
                    and b.re.denominator == 1
                    and b.im.denominator == 1
                ):
                    counts["scalar_int_ops"] += 1
            except AttributeError:
                pass
            return op(a, b)

        counted.__name__ = op.__name__
        counted.__wrapped__ = op
        setattr(counted, MARK, f"exactlin.Scalar.{op.__name__}")
        return counted

    # per-call measurements taken at the layer boundary

    def _barred(self, args):
        module, x, v = args[0], args[1], args[2]
        self.counts["barred_actions"] += len(v)
        xk = (id(module), tuple(sorted(x.entries.items())))
        xid = self._xkeys.setdefault(xk, len(self._xkeys))
        self._barred_pairs.update((xid, key) for key in v.terms)

    def _elim_matrix(self, args):
        m = args[0]
        self.counts["elim_nnz"] += len(m.entries)
        self.counts["elim_max_cols"] = max(self.counts["elim_max_cols"], m.cols)

    def _elim_vector(self, args):
        v = args[1]
        self.counts["elim_nnz"] += len(v)
        if v:
            self.counts["elim_max_cols"] = max(self.counts["elim_max_cols"], max(v.entries) + 1)

    def _dumps_done(self, args, result):
        self.counts["serialize_bytes"] += len(result.encode())

    def _hooks(self):
        """span -> (called with the arguments before, with the result after)."""
        return {
            "fockrep.FockModule.apply_barred": (self._barred, None),
            "exactlin.kernel_basis": (self._elim_matrix, None),
            "exactlin.solve": (self._elim_matrix, None),
            "exactlin.rank": (self._elim_matrix, None),
            "exactlin.invert": (self._elim_matrix, None),
            "exactlin.EchelonSpan.add": (self._elim_vector, None),
            "exactlin.EchelonSpan.coordinates": (self._elim_vector, None),
            "serialize.dumps": (None, self._dumps_done),
        }

    # -- install / uninstall -----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()
        hooks = self._hooks()
        for owner, attr, span in traced_functions():
            orig = getattr(owner, attr)
            wrapper = self._wrap(span, orig, *hooks.get(span, ()))
            self._patch(owner, attr, orig, wrapper)
            if inspect.ismodule(owner):
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is orig and not (ns is owner and name == attr):
                            self._patch(ns, name, orig, wrapper)
        for op in SCALAR_OPS:
            orig = getattr(exactlin.Scalar, op)
            self._patch(exactlin.Scalar, op, orig, self._count_scalar(orig))

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------------

    def span_totals(self):
        """(calls, self seconds) per span name, and the traced total in seconds.

        A span's self time is its duration minus the time of its direct
        children; the traced total is the summed duration of root spans.
        """
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        total = 0
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
            if self.span_parent[i] < 0:
                total += dur[i]
        return calls, {k: v / 1e9 for k, v in self_ns.items()}, total / 1e9

    def barred_distinct(self) -> int:
        return len(self._barred_pairs)

    def write_spans(self, path: str, header: str):
        """Store every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(header + "\n")
            fh.write("id\tname\tparent\tjob\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_job[i]}\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )


def leftover_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper; empty after `uninstall`."""
    owners = _namespaces() + [exactlin.Scalar] + [cls for cls, _ in METHODS]
    return [
        f"{owner.__name__}.{name}"
        for owner in owners
        for name, value in list(vars(owner).items())
        if callable(value) and hasattr(value, MARK)
    ]
