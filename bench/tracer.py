"""In-memory span tracer that wraps robwit's public functions from outside.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper that records a span (name, start, end, parent, op id).  Because the
package imports names directly (``from .linalg import min_eigenvalue``), each
wrapper is re-bound under every name that refers to the original function in
every loaded ``robwit`` module; ``uninstall`` puts the originals back.  Three
boundaries outside robwit are spanned too: numpy's Hermitian eigensolvers and
SVD (``linalg.eigensolve``, with d^3 recorded per call), argparse's
``parse_args`` on the parser ``cli.make_parser`` returns, and ``json.dumps``
as the CLI sees it.  No file of the package is changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("cli", "maps", "witnesses", "states", "linalg", "certify")
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")
EIGENSOLVE = "linalg.eigensolve"

# A layer is a group of spans whose self time is reported as one metric.  Its
# self time is the span's duration minus the time covered by the spans of
# other layers nested in it; spans of functions outside every layer (helpers
# such as as_complex or min_eigenvalue, and the eigensolver and apply_map
# kernels, which are counted separately) count toward the layer that called
# them.  Each check is its own layer, so the layers partition an op.
LAYERS = {
    "cli.parse_s": ("cli.make_parser", "cli.parse_args", "cli.resolve_u", "cli.resolve_v",
                    "cli.parse_tolerances", "cli.load_matrix_file", "cli.matrix_from_payload"),
    "cli.emit_s": ("cli.matrix_to_payload", "cli.json.dumps", "cli.csv_table", "cli.emit"),
    "maps.params.s": ("maps.random_antisymmetric_unitary", "maps.random_unitary", "maps.phi_u",
                      "maps.conjugated_phi"),
    "witnesses.choi.s": ("witnesses.choi",),
    "witnesses.transform_witness.s": ("witnesses.transform_witness",),
    "witnesses.verify_spectrum.s": ("witnesses.verify_spectrum",),
    "states.isotropic_state.s": ("states.isotropic_state",),
    "states.ppt_entangled_state.s": ("states.ppt_entangled_state",),
    "linalg.numerical_rank.s": ("linalg.numerical_rank",),
    "certify.positivity.s": ("certify.verify_positivity",),
    "certify.self-duality.s": ("certify.verify_self_duality",),
    "certify.nondecomposability.s": ("certify.verify_nondecomposability",),
    "certify.optimality.s": ("certify.verify_optimality",),
    "certify.nd-optimality.s": ("certify.verify_nd_optimality",),
    "certify.spa-threshold.s": ("certify.spa_threshold_report",),
    "certify.eb-certificate.s": ("certify.verify_eb_certificate",),
}

# Kernels: busy time (inclusive) and call counts at the call boundary.
KERNEL_TIMES = {"maps.apply_map.s": "maps.apply_map", "linalg.eigensolve.s": EIGENSOLVE}
CALL_COUNTS = {
    "maps.apply_map.calls": "maps.apply_map",
    "linalg.eigensolve.calls": EIGENSOLVE,
    "linalg.partial_transpose.calls": "linalg.partial_transpose",
    "witnesses.choi.calls": "witnesses.choi",
    "states.isotropic_state.calls": "states.isotropic_state",
}


def _dim3(args) -> int:
    """Computed operation count of one eigensolve or SVD: m * n * min(m, n)."""
    shape = np.shape(args[0]) if args else ()
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return int(m) * int(n) * int(min(m, n))


class _ModuleProxy:
    """Stands in for a module inside one robwit module, with some names replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans while installed; spans stay in memory until ``write``."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.extra = array("q")
        self._stack = [-1]
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, extra=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._id(name)
        stack = self._stack
        name_ids, starts, ends, parents, ops, extras = (
            self.name_id, self.start, self.end, self.parent, self.op, self.extra)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            extras.append(extra(args) if extra else 0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            return after(result) if after else result

        return wrapper

    def _build_wrappers(self) -> dict[int, object]:
        """Map id(original function) -> wrapper for every traced public function."""
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package.__name__}.{short}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                after = self._wrap_parse_args if (short, name) == ("cli", "make_parser") else None
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj, after=after))
        return wrappers

    def _wrap_parse_args(self, parser):
        parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
        return parser

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = self.package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, name, entry[1])
        for name in EIGENSOLVERS:
            self._patch(np.linalg, name, self.wrap(EIGENSOLVE, getattr(np.linalg, name), extra=_dim3))
        cli = sys.modules[f"{prefix}.cli"]
        self._patch(cli, "json", _ModuleProxy(json, dumps=self.wrap("cli.json.dumps", json.dumps)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name_id", "start", "end", "parent", "op", "extra")}

    def write(self, path) -> None:
        """Write every span to a compressed .npz file (names in ``names``)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def nearest_layer_ancestor(parent: np.ndarray, is_layer_span: np.ndarray) -> np.ndarray:
    """For every span, the index of its closest proper ancestor that is a layer span, or -1."""
    anc = parent.copy()
    while True:
        climb = (anc >= 0)
        climb[climb] = ~is_layer_span[anc[climb]]
        if not climb.any():
            return anc
        anc[climb] = parent[anc[climb]]


def summarize(tracer: Tracer, n_ops: int) -> dict:
    """Per-op means of every layer and kernel metric, plus a per-function table.

    Returns ``{"metrics": {name: value}, "functions": {span name: {...}}}``;
    times are in seconds, counts are per op.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = (a["end"] - a["start"]) / 1e9
    name_id, parent = a["name_id"], a["parent"]
    ops = max(n_ops, 1)

    layer_of_name = np.full(len(names), -1)
    layer_names = list(LAYERS)
    for li, metric in enumerate(layer_names):
        for span in LAYERS[metric]:
            if span in tracer._name_ids:
                layer_of_name[tracer._name_ids[span]] = li
    span_layer = layer_of_name[name_id] if len(name_id) else np.zeros(0, dtype=int)
    is_layer_span = span_layer >= 0
    anc = nearest_layer_ancestor(parent, is_layer_span)

    layer_self = np.where(is_layer_span, dur, 0.0)
    nested = is_layer_span & (anc >= 0)
    np.subtract.at(layer_self, anc[nested], dur[nested])

    metrics: dict[str, float] = {}
    for li, metric in enumerate(layer_names):
        metrics[metric] = float(layer_self[span_layer == li].sum()) / ops

    def ids(span: str) -> np.ndarray:
        return name_id == tracer._name_ids.get(span, -1)

    for metric, span in KERNEL_TIMES.items():
        metrics[metric] = float(dur[ids(span)].sum()) / ops
    for metric, span in CALL_COUNTS.items():
        metrics[metric] = float(ids(span).sum()) / ops
    eig = ids(EIGENSOLVE)
    metrics["linalg.eigensolve.dim3_sum"] = float(a["extra"][eig].sum()) / ops
    spa = layer_names.index("certify.spa-threshold.s")
    in_spa = eig & (anc >= 0)
    in_spa[in_spa] = span_layer[anc[in_spa]] == spa
    metrics["certify.spa.eig_calls"] = float(in_spa.sum()) / ops
    metrics["trace.spans"] = float(len(dur)) / ops

    strict_self = dur.copy()
    has_parent = parent >= 0
    np.subtract.at(strict_self, parent[has_parent], dur[has_parent])
    calls = np.bincount(name_id, minlength=len(names))
    self_sum = np.bincount(name_id, weights=strict_self, minlength=len(names))
    functions = {
        name: {"calls": float(calls[i]) / ops, "self_s": float(self_sum[i]) / ops}
        for i, name in enumerate(names) if calls[i]
    }
    return {"metrics": metrics, "functions": functions}
