"""Run one weylkit request with its public functions timed.

    python3 tracer.py cli ARGV...            like ``python3 -m weylkit.cli ARGV...``
    python3 tracer.py script PATH ARGS...    like ``python3 PATH ARGS...``

Each function in ``TRACED`` is replaced, at every weylkit module attribute
that refers to it, by a wrapper that records a span. The wrappers sit where
``weylkit.cli``, the sibling modules and the scripts look the names up, so
no file of the package changes. Stdout and the exit code stay those of the
plain run; one summary line, prefixed by ``MARK``, is appended to stderr.
"""

import sys
import time

_started = time.perf_counter()
if __name__ == "__main__":
    if sys.argv[1] == "cli":
        import weylkit.cli
    else:
        import weylkit
_import_ms = (time.perf_counter() - _started) * 1e3

import json  # noqa: E402  (after the timed package import)
import resource  # noqa: E402
import runpy  # noqa: E402
import traceback  # noqa: E402

MARK = "@@weylkit-trace "

# (module, attribute path) of every traced entry point
TRACED = [
    ("cartan", "validate_gcm"),
    ("cartan", "is_finite_type"),
    ("cartan", "classify"),
    ("cartan", "symmetrizer"),
    ("intmat", "leading_principal_minors"),
    ("intmat", "smith_normal_form"),
    ("roots", "generate_roots"),
    ("weyl", "enumerate_weyl"),
    ("pushforward", "pushforward_word"),
    ("pushforward", "h0_rank"),
    ("characters", "EulerData.from_root_system"),
    ("characters", "shifted_euler_characteristic"),
    ("characters", "weyl_dim"),
    ("characters", "volume"),
    ("rootdata", "fundamental_group"),
    ("rootdata", "adjoint_datum"),
    ("rootdata", "simply_connected_datum"),
    ("isogeny", "enumerate_special_for_type"),
    ("isogeny", "validate_pmorphism"),
    ("isogeny", "is_primitive"),
    ("isogeny", "is_constant"),
    ("isogeny", "factor_primitive_constant"),
    ("chevalley", "short_root_ideal_check"),
    ("chevalley", "steinberg_check"),
]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and counters of one process, kept in memory until ``summary``."""

    def __init__(self):
        # stack[-1] accumulates the durations of the open span's children;
        # stack[0] collects the top-level spans
        self.stack = [0]
        self.spans = {}       # name -> [calls, inclusive ns, self ns]
        self.counters = {"roots.generated": 0, "weyl.elements": 0,
                         "weyl.layer_bytes": 0, "weyl.max_layer_rows": 0,
                         "weyl.rss_delta_kb": 0, "pushforward.graded_entries": 0}
        self.push_keys = set()

    def wrap(self, name, fn, before=None, after=None):
        stat = self.spans.setdefault(name, [0, 0, 0])
        stack = self.stack
        depth = [0]   # active calls of this function, so recursion counts once

        def traced(*args, **kwargs):
            state = before() if before else None
            stack.append(0)
            depth[0] += 1
            t = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = time.perf_counter_ns() - t
                depth[0] -= 1
                child = stack.pop()
                stack[-1] += d
                stat[0] += 1
                stat[2] += d - child
                if depth[0] == 0:
                    stat[1] += d
            if after:
                after(result, args, state)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters, taken outside the spans they describe

    def _roots(self, rs, args, state):
        self.counters["roots.generated"] += len(rs.roots)

    def _weyl(self, group, args, rss_before):
        c = self.counters
        c["weyl.elements"] += group.order
        c["weyl.layer_bytes"] += sum(int(layer.nbytes) for layer in group.layers)
        c["weyl.max_layer_rows"] = max(c["weyl.max_layer_rows"],
                                       max(len(layer) for layer in group.layers))
        delta = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
        c["weyl.rss_delta_kb"] = max(c["weyl.rss_delta_kb"], delta)

    def _push(self, gw, args, state):
        rs, word, weight = args[:3]
        self.counters["pushforward.graded_entries"] += sum(gw.values())
        self.push_keys.add((rs.gcm.entries, tuple(word), tuple(weight)))

    def install(self, package):
        """Swap every traced function for its wrapper across ``package``."""
        hooks = {
            "roots.generate_roots": (None, self._roots),
            "weyl.enumerate_weyl": (
                lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                self._weyl),
            "pushforward.pushforward_word": (None, self._push),
        }
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for mod_name, attr in TRACED:
            name = span_name(mod_name, attr)
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(path[-1]) if owner is not None else None
            if raw is None:
                continue   # the entry point is gone: its metrics read 0
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, classmethod):
                setattr(owner, path[-1],
                        classmethod(self.wrap(name, raw.__func__, before, after)))
                continue
            wrapper = self.wrap(name, raw, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)

    def summary(self, main_ms: float) -> dict:
        return {
            "import_ms": _import_ms,
            "main_ms": main_ms,
            "self_ms": main_ms - self.stack[0] / 1e6,
            "spans": {k: [v[0], v[1] / 1e6, v[2] / 1e6] for k, v in self.spans.items()},
            "counters": self.counters,
            "push_distinct": len(self.push_keys),
        }


def main() -> int:
    tracer = Tracer()
    tracer.install(sys.modules["weylkit"])
    started = time.perf_counter()
    try:
        if sys.argv[1] == "cli":
            code = weylkit.cli.main(sys.argv[2:])
        else:
            sys.argv = sys.argv[2:]
            runpy.run_path(sys.argv[0], run_name="__main__")
            code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    main_ms = (time.perf_counter() - started) * 1e3
    sys.stdout.flush()
    sys.stderr.write("\n" + MARK + json.dumps(tracer.summary(main_ms)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
