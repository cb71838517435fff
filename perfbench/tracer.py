"""Per-module spans recorded from outside the package.

``Tracer.install`` replaces every public function of the walklab modules,
plus a few public methods, with a timing wrapper, and rebinds every name
that refers to one of them, ``from``-imports included.  ``restore`` puts the
originals back.  The package itself is not edited: the spans are recorded
from the benchmark's own files, around the calls into each module.

A call opens a span only when it crosses a module boundary, that is when the
innermost open span belongs to another module.  Calls inside one module
(helpers, recursion) run straight through, which keeps tracing cheap.  A few
named functions are probes: they count every call and time every outermost
activation, even from inside their own module.  Spans stay in memory until
the pass ends.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "experiments", "graphs", "classical", "coined", "scattering", "grover",
    "szegedy", "subset", "ctqw", "linalg", "special", "distributions",
    "datafiles",
)

METHODS = {"coined": ("CoinedWalkOperator.step", "DensityState.check_positive")}

PROBES = (
    "linalg.unitary_eigensystem", "linalg.eig_hermitian",
    "linalg.unitarity_defect", "szegedy.spectrum_map",
    "szegedy.marked_phase_gap", "szegedy.szegedy_build",
    "coined.decohere_evolve", "coined.DensityState.check_positive",
    "coined.CoinedWalkOperator.step", "coined.absorbing_line_quantum",
    "classical.mixing_time", "classical.metropolis_chain",
    "special.bessel_j", "datafiles.write_csv",
)

COUNTS = ("linalg.decomp_n3", "szegedy.walk_dim_max",
          "classical.mixing_time.returned", "datafiles.rows", "datafiles.bytes")


class Probe:
    __slots__ = ("calls", "seconds", "active")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.active = 0


class Tracer:
    """Wraps the walklab modules; records spans and probe totals."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.probes = {name: Probe() for name in PROBES}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._patched = []

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"walklab.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(short, attr, fn))
            for qualname in METHODS.get(short, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[method]
                self._patched.append((cls, method, fn))
                setattr(cls, method, self._wrap(short, qualname, fn))
        for name, module in list(sys.modules.items()):
            if name != "walklab" and not name.startswith("walklab."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- the wrappers ---------------------------------------------------------

    def _wrap(self, module, name, fn):
        full = f"{module}.{name}"
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        probe = self.probes.get(full)
        hook = getattr(self, "_after_" + full.replace(".", "_"), None)

        if probe is None:
            def traced(*args, **kwargs):
                if stack and stack[-1][0] == module:
                    return fn(*args, **kwargs)
                index = len(spans)
                spans.append(None)
                stack.append((module, index))
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    parent = stack[-1][1] if stack else -1
                    spans[index] = (full, module, start, end, parent)
        else:
            def traced(*args, **kwargs):
                cross = not stack or stack[-1][0] != module
                if cross:
                    index = len(spans)
                    spans.append(None)
                    stack.append((module, index))
                probe.calls += 1
                probe.active += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    probe.active -= 1
                    if not probe.active:
                        probe.seconds += end - start
                    if cross:
                        stack.pop()
                        parent = stack[-1][1] if stack else -1
                        spans[index] = (full, module, start, end, parent)
                if hook is not None:
                    hook(args, result)
                return result

        return functools.update_wrapper(traced, fn)

    # Computed counts, gathered after the call returns and outside its time.

    def _after_linalg_unitary_eigensystem(self, args, result):
        self.counts["linalg.decomp_n3"] += len(args[0]) ** 3

    def _after_linalg_eig_hermitian(self, args, result):
        self.counts["linalg.decomp_n3"] += len(args[0]) ** 3

    def _after_szegedy_szegedy_build(self, args, result):
        dim = len(result.w)
        if dim > self.counts["szegedy.walk_dim_max"]:
            self.counts["szegedy.walk_dim_max"] = dim

    def _after_classical_mixing_time(self, args, result):
        self.counts["classical.mixing_time.returned"] += result[0]

    def _after_datafiles_write_csv(self, args, result):
        with open(args[0], "rb") as fh:
            data = fh.read()
        self.counts["datafiles.rows"] += data.count(b"\n") - 1
        self.counts["datafiles.bytes"] += len(data)

    # -- reading the record ---------------------------------------------------

    def layers(self):
        """Per-module self seconds and boundary-crossing call counts.

        A span's self time is its duration minus the durations of its child
        spans, which by construction belong to other modules.
        """
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (_, module, start, end, _) in enumerate(self.spans):
            self_s[module] += end - start - covered[i]
            calls[module] += 1
        return self_s, calls

    def children_of(self, parent_name, child_name):
        """Spans named ``child_name`` opened directly under ``parent_name``."""
        names = [span[0] for span in self.spans]
        return sum(1 for name, _, _, _, parent in self.spans
                   if name == child_name and parent >= 0
                   and names[parent] == parent_name)
