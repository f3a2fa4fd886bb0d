"""Outside-in tracer for cvqss: spans around each public function, no source edits.

cvqss modules import functions by name (``from .noise import lincomb``), so
replacing ``noise.lincomb`` alone would miss most calls.  ``install`` instead
rebinds every global of every loaded cvqss module that refers to a traced
function, and patches ``FieldState.__init__`` and ``NoiseBasis.register`` on
their classes.  ``unbound`` then lists any binding still pointing at an
original, so a missed call site fails the run instead of undercounting.

A span is (name, start, end, parent span, op id), kept in compact arrays in
memory until the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

TARGETS = (
    ("noise", ("lincomb", "variance", "covariance", "field_from_mode", "FieldState",
               "NoiseBasis.register")),
    ("optics", ("beam_splitter", "phase_shift", "psa_ideal", "psa_type2_pair",
                "phase_modulate", "detect", "feedforward_mix")),
    ("entanglement", ("epr_type1", "epr_type2")),
    ("protocol", ("deal", "reconstruct_12", "reconstruct_2psa", "reconstruct_ff",
                  "collaboration_beams", "symplectic_correct")),
    ("metrics", ("evaluate", "tv_point", "fidelity", "transfer_coefficient",
                 "conditional_variance", "closed_form", "fidelity_closed_form",
                 "optimal_gain", "crossover_squeezing")),
    ("cli", ("run_scenario", "verify_grid", "tv_curve_records", "table_entries", "main")),
)
LAYERS = tuple(layer for layer, _ in TARGETS)
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TARGETS for name in names)
_OPTIMISER = SPAN_NAMES.index("metrics.optimal_gain")
_OBJECTIVE = SPAN_NAMES.index("metrics.closed_form")


class Tracer:
    """Records spans for SPAN_NAMES once installed; ``op_id`` tags each span."""

    def __init__(self, package: str = "cvqss") -> None:
        self.package = package
        self.op_id = -1
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: dict[int, str] = {}  # id(original function) -> span name
        self._keep: list = []  # keeps originals alive so their ids stay unique
        self._class_patches: list[tuple[type, str, object, str]] = []
        self._undo: list[tuple[object, str, bool, object]] = []

    def modules(self) -> list:
        pkg = self.package
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == pkg or n.startswith(pkg + "."))
        ]

    def _wrap(self, fid: int, fn):
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced function; raise if any binding is left over."""
        for fid, span in enumerate(SPAN_NAMES):
            layer, _, path = span.partition(".")
            mod = sys.modules.get(f"{self.package}.{layer}")
            head, _, method = path.partition(".")
            obj = getattr(mod, head, None)
            if obj is None or (method and not hasattr(obj, method)):
                self.missing.append(span)
                continue
            if method or isinstance(obj, type):
                # Methods and constructions are patched once, on the class.
                attr = method or "__init__"
                wrapper = self._wrap(fid, getattr(obj, attr))
                self._set(obj, attr, wrapper)
                self._class_patches.append((obj, attr, wrapper, span))
                continue
            wrapper = self._wrap(fid, obj)
            self._originals[id(obj)] = span
            self._keep.append(obj)
            for m in self.modules():
                for key, value in list(vars(m).items()):
                    if value is obj:
                        self._set(m, key, wrapper)
        left = self.unbound()
        if left:
            self.uninstall()
            raise RuntimeError("tracer left bindings unwrapped: " + ", ".join(left))

    def unbound(self) -> list[str]:
        """Bindings in cvqss modules or classes that still reach an original."""
        left = [
            f"{m.__name__}.{key} ({self._originals[id(value)]})"
            for m in self.modules()
            for key, value in vars(m).items()
            if id(value) in self._originals
        ]
        left += [
            f"{owner.__name__}.{attr} ({span})"
            for owner, attr, wrapper, span in self._class_patches
            if getattr(owner, attr) is not wrapper
        ]
        return left

    def uninstall(self) -> None:
        for owner, attr, had, value in reversed(self._undo):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()
        self._class_patches.clear()
        self._originals.clear()
        self._keep.clear()

    def summary(self) -> dict:
        """Totals over all spans: calls and self seconds per span name, and the
        number of closed_form calls made under an optimal_gain span."""
        n = len(self.fid)
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))  # zeros; a list of floats would triple the memory
        under_opt = bytearray(n)
        objective_in_opt = 0
        for i in range(n):
            p = parent[i]
            if p >= 0:  # parents are appended before their children
                child[p] += end[i] - start[i]
                under_opt[i] = under_opt[p] or fid[p] == _OPTIMISER
                if fid[i] == _OBJECTIVE and under_opt[i]:
                    objective_in_opt += 1
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            f = fid[i]
            calls[f] += 1
            self_s[f] += end[i] - start[i] - child[i]
        return {
            "calls": dict(zip(SPAN_NAMES, calls)),
            "self_s": dict(zip(SPAN_NAMES, self_s)),
            "objective_in_optimiser": objective_in_opt,
            "spans": n,
        }

    def spans_of_op(self, op_id: int) -> list[list]:
        """Spans of one op as [name, start_us, end_us, parent, op]; times and
        parent indices are relative to the op's first span."""
        idx = [i for i in range(len(self.op)) if self.op[i] == op_id]
        if not idx:
            return []
        base, t0 = idx[0], self.start[idx[0]]
        return [
            [SPAN_NAMES[self.fid[i]], round((self.start[i] - t0) * 1e6, 3),
             round((self.end[i] - t0) * 1e6, 3),
             self.parent[i] - base if self.parent[i] >= base else -1, op_id]
            for i in idx
        ]
