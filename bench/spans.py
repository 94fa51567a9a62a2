"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each public function listed in SPANS with a timing
wrapper, at every module attribute where a caller looks it up: a function
brought in with `from .linalg import ...` is bound in the importing module
too, so each such binding is patched.  A span records its call count, its
inclusive time (counted once while calls of the same span are nested) and its
self time (its duration minus that of the spans it directly encloses).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# (span name, defining module, attribute); methods are "Class.method".
SPANS = (
    ("cli.resolve_input", "cli", "resolve_input"),
    ("om.build", "om", "om_from_arrangement"),
    ("om.build", "om", "om_from_covectors"),
    ("om.axiom_check", "om", "check_covector_axioms"),
    ("salvetti.complex", "salvetti", "get_salvetti"),
    ("salvetti.complex", "salvetti", "homology_mod2"),
    ("salvetti.fine", "salvetti", "get_fine"),
    ("salvetti.homology_Z", "salvetti", "homology_Z"),
    ("salvetti.cochain_eval", "salvetti", "bz_cochain_eval"),
    ("linalg.snf_sparse", "linalg", "snf_diagonal_sparse"),
    ("linalg.snf_dense", "linalg", "smith_normal_form"),
    ("linalg.hnf", "linalg", "hermite_normal_form"),
    ("linalg.gf2", "linalg", "gf2_rref"),
    ("linalg.gf2", "linalg", "GF2Solver.__init__"),
    ("linalg.gf2", "linalg", "GF2Solver.solve"),
    ("linalg.gf2", "linalg", "GF2Solver.kernel_basis"),
    ("algebras.cordovil_dual", "algebras", "cordovil_dual"),
    ("algebras.projectivize", "algebras", "projectivize"),
    ("filtrations.thmA", "filtrations", "verify_theorem_A"),
    ("filtrations.thmB", "filtrations", "verify_theorem_B"),
    ("filtrations.asymptotic", "filtrations", "asymptotic"),
    ("filtrations.vg_lower", "filtrations", "vg_lower"),
    ("filtrations.quillenZ", "filtrations", "quillen_Z_demo"),
    ("cosheaf.thmC", "cosheaf", "verify_theorem_C"),
    ("cosheaf.stalk", "cosheaf", "stalk_matroid"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
SIZES = ("om.covectors", "om.topes", "salvetti.fine_simplices",
         "linalg.snf_sparse_nnz", "algebras.cordovil_dual_distinct", "cosheaf.stalks")
METRICS = tuple(f"{name}{suffix}" for name in SPAN_NAMES
                for suffix in ("_s", "_self_s", "_calls")) + SIZES + ("trace.overhead_s",)


class Tracer:
    """Span and size totals for one process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # enclosed-span time per open span
        self._seen: dict[str, set] = defaultdict(set)
        self._keep: list = []  # keeps objects alive so their ids stay unique

    def install(self, package: str = "topespace") -> None:
        """Wrap every function in SPANS wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for name, module, attr in SPANS:
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        on_result = getattr(self, "_size_" + name.replace(".", "_"), None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dur - frame[0]
                if not self._active[name]:
                    self.inclusive[name] += dur
                if self._stack:
                    self._stack[-1][0] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _first_time(self, kind: str, obj) -> bool:
        if id(obj) in self._seen[kind]:
            return False
        self._seen[kind].add(id(obj))
        self._keep.append(obj)
        return True

    def _size_om_build(self, args, m) -> None:
        self.sizes["om.covectors"] += len(m.covectors)
        self.sizes["om.topes"] += len(m.topes)

    def _size_salvetti_fine(self, args, fine) -> None:
        if self._first_time("fine", fine):
            self.sizes["salvetti.fine_simplices"] += sum(
                fine.n_simplices(p) for p in range(fine.sal.dim + 1))

    def _size_linalg_snf_sparse(self, args, diag) -> None:
        self.sizes["linalg.snf_sparse_nnz"] += sum(1 for v in args[0].values() if v)

    def _size_algebras_cordovil_dual(self, args, lattice) -> None:
        m, p = args
        key = (m.covector_set, p)
        if key not in self._seen["cordovil"]:
            self._seen["cordovil"].add(key)
            self.sizes["algebras.cordovil_dual_distinct"] += 1

    def _size_cosheaf_stalk(self, args, stalk) -> None:
        if self._first_time("stalk", stalk):
            self.sizes["cosheaf.stalks"] += 1

    def overhead_s(self, probes: int = 20000) -> float:
        """Wrapper calls made so far times the measured cost of one wrapper call."""
        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        t0 = perf_counter()
        for _ in range(probes):
            noop()
        t1 = perf_counter()
        for _ in range(probes):
            wrapped()
        t2 = perf_counter()
        per_call = max(0.0, ((t2 - t1) - (t1 - t0)) / probes)
        return per_call * sum(self.calls.values())

    def totals(self) -> dict[str, float]:
        """Every name in METRICS with its value in this process."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = self.inclusive[name]
            out[f"{name}_self_s"] = self.self_time[name]
            out[f"{name}_calls"] = self.calls[name]
        out.update((name, self.sizes[name]) for name in SIZES)
        out["trace.overhead_s"] = self.overhead_s()
        return out
