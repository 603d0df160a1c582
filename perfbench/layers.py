"""Per-layer tracing from outside the library.

The tracer wraps the public functions of the library's layers (``linalg``,
``lie``, ``parabolic``, ``derivations`` and the ``cli`` entry point) at every
module attribute that callers look them up through, so a function imported
by name into another module is traced there too. Each call becomes a span
(name, start, end, parent span, request id) kept in memory; per-function
call counts, inclusive time and self time are summed as spans close, and a
few exact problem-size counters are taken at the same boundaries. Nothing
in the library changes, and uninstalling restores every attribute.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "liederiv"
LAYERS = ("linalg", "lie", "parabolic", "derivations", "cli")

# The CLI layer is its entry point; argument parsing, input parsing, payload
# building and json.dumps in the subcommand handlers are its self time.
ONLY = {"cli": ("main",)}

CLASSMETHODS = {"linalg": (("Subspace", "from_vectors"), ("Subspace", "from_sparse"))}


def src_lines(path: Path) -> int:
    """Non-blank lines that are not comments."""
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        s = line.strip()
        if s and not s.startswith("#"):
            count += 1
    return count


def src_line_metrics(src_dir: Path) -> dict[str, int]:
    """``<module>.src_lines`` per layer file, plus the package total."""
    out = {}
    total = 0
    for path in sorted(src_dir.glob("*.py")):
        n = src_lines(path)
        total += n
        out[f"{path.stem}.src_lines"] = n
    out["liederiv.src_lines"] = total
    return out


class Tracer:
    """Span recorder that wraps library functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.request = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._depth[name] -= 1
                dur = t1 - t0
                self.spans[sid] = (name_id, t0, t1, parent, self.request)
                self.calls[name] += 1
                self.self_time[name] += dur - frame[1]
                if not self._depth[name]:
                    self.inclusive[name] += dur
                if self._stack:
                    self._stack[-1][1] += dur
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function wherever the package binds it."""
        modules = {k: m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer in ONLY and attr not in ONLY[layer]:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, meth in CLASSMETHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(f"{layer}.{cls_name}.{meth}", raw.__func__))
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.s"] = self.inclusive.get(name, 0.0)
            out[f"{name}.self_s"] = self.self_time.get(name, 0.0)
        for name in _COUNTERS:
            out[name] = self.counters.get(name, 0)
        return out

    def layer_shares(self, wall: float) -> dict[str, float]:
        """Self time per layer as a share of the traced wall time; the rest
        is the benchmark's own loop and output capture."""
        shares = defaultdict(float)
        for name, t in self.self_time.items():
            shares[name.split(".", 1)[0]] += t / wall
        shares["bench"] = 1.0 - sum(shares.values())
        return dict(shares)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "names": self.names, "spans": self.spans}, fh)


# -- exact size counters, taken at the same boundaries ---------------------

def _counted_rows(tracer: Tracer, rows):
    c = tracer.counters
    for row in rows:
        c["linalg.nullspace_of_rows.rows"] += 1
        c["linalg.nullspace_of_rows.nnz"] += len(row)
        yield row


def _before_nullspace(tracer: Tracer, args):
    ncols, rows = args
    return ncols, _counted_rows(tracer, rows)


def _after_nullspace(tracer: Tracer, args, kernel) -> None:
    tracer.counters["linalg.nullspace_of_rows.unknowns"] += args[0]
    tracer.counters["linalg.nullspace_of_rows.rank"] += args[0] - kernel.dim


def _after_der(tracer: Tracer, args, der) -> None:
    tracer.counters["derivations.derivation_algebra.kernel_dim"] += der.dim


def _after_build(tracer: Tracer, args, q) -> None:
    c = tracer.counters
    c["parabolic.q_dim_max"] = max(c["parabolic.q_dim_max"], q.dim)


_BEFORE = {"linalg.nullspace_of_rows": _before_nullspace}
_AFTER = {
    "linalg.nullspace_of_rows": _after_nullspace,
    "derivations.derivation_algebra": _after_der,
    "parabolic.build_standard_parabolic": _after_build,
}
_COUNTERS = (
    "linalg.nullspace_of_rows.rows",
    "linalg.nullspace_of_rows.nnz",
    "linalg.nullspace_of_rows.unknowns",
    "linalg.nullspace_of_rows.rank",
    "derivations.derivation_algebra.kernel_dim",
    "parabolic.q_dim_max",
)
