"""Outside-in tracer: wraps the package's public functions from outside.

install() replaces each traced function in every orthomono module
namespace that binds it (cli, witness and corpus import many of them by
name), so calls through any binding are seen.  Nothing under src/ changes.

A span records name, start, end, parent span and command id; spans stay in
memory until dump().  Counted functions (the linalg kernels) open no span:
each call adds to a counter of the innermost open span, so
"quadform.witt_decompose.vec_dot" is the number of vec_dot calls made
under witt_decompose and not under a deeper traced function.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) opening a span; "Class.method" wraps a method and
# "Class.__init__" records the constructor as "<module>.Class.init"
SPANNED = (
    ("parsing", "parse_poly"),
    ("monodromy", "build_pair"),
    ("quadform", "invariant_space"),
    ("quadform", "gram_remainder"),
    ("quadform", "gram_invariance"),
    ("quadform", "signature"),
    ("quadform", "isotropic_search"),
    ("quadform", "witt_decompose"),
    ("quadform", "q_rank"),
    ("quadform", "find_anisotropy_certificate"),
    ("padding", "pad_pair"),
    ("padding", "remainder_coeff_check"),
    ("padding", "isometry_check"),
    ("witness", "WitnessContext.__init__"),
    ("witness", "WitnessContext.word_orbit"),
    ("witness", "reflection_matrix"),
    ("witness", "unipotent_from_reflections"),
    ("witness", "integral_reflection_vectors"),
    ("witness", "span_rank_witness"),
    ("witness", "arithmeticity_report"),
    ("corpus", "run_suite"),
    ("cli", "build_report"),
    ("cli", "build_pad_report"),
    ("cli", "serialize_report"),
)
COUNTED = (("linalg", "vec_dot"), ("linalg", "mat_mul"),
           ("linalg", "inverse"), ("linalg", "rank"))

PACKAGE = "orthomono"


def _outcome(name: str, args: tuple, result) -> dict[str, int]:
    """Counts read off a traced function's arguments and return value."""
    if name == "quadform.isotropic_search":
        return {"found": len(result)}
    if name == "witness.WitnessContext.word_orbit":
        return {"orbit_size": len(result[0])}
    if name == "witness.span_rank_witness":
        return {"rank": result}
    if name == "witness.unipotent_from_reflections":
        return {"hits": int(result is not None)}
    if name == "witness.arithmeticity_report":
        return {"witnessed": int(result.conclusion == "witnessed-arithmetic")}
    if name == "cli.serialize_report":
        # the timings block is the only part of a report that varies
        doc = {k: v for k, v in args[0].items() if k != "timings"}
        return {"bytes": len(json.dumps(doc, sort_keys=True, indent=2))}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.command = None
        self.counters: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self._undo: list[tuple[object, str, object]] = []

    def _owner(self) -> str:
        return self.spans[self.stack[-1]]["name"] if self.stack else "(root)"

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": tracer.stack[-1]
                    if tracer.stack else None, "cmd": tracer.command,
                    "start": time.perf_counter(), "end": None}
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            for key, value in _outcome(name, args, result).items():
                tracer.counters[name][key] += value
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self
        short = name.rsplit(".", 1)[1]

        def wrapper(*args, **kwargs):
            tracer.counters[tracer._owner()][short] += 1
            tracer.counters[name]["calls"] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for table, make in ((SPANNED, self._spanned),
                            (COUNTED, self._counted)):
            for mod_name, attr in table:
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    label = f"{mod_name}.{cls_name}." + (
                        "init" if meth == "__init__" else meth)
                    self._swap(cls, meth, make(label, vars(cls)[meth]))
                    continue
                original = getattr(module, attr)
                wrapper = make(f"{mod_name}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, key, wrapper)

    def _swap(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, total and self seconds, errors by
        type, and every counter attributed to it."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(self.spans):
            stats = out[span["name"]]
            total = span["end"] - span["start"]
            stats["calls"] += 1
            stats["total_s"] += total
            stats["self_s"] += total - child_time[i]
            if "error" in span:
                stats["errors." + span["error"]] += 1
        for name, counters in self.counters.items():
            for key, value in counters.items():
                out[name][key] += value
        return {name: dict(stats) for name, stats in out.items()}

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")
