"""Outside-in tracer: wraps named functions of an imported package.

Each target is ``<module>.<qualname>`` under the package, e.g.
``linalg.kernel`` or ``exactpoly.MPoly.__mul__``.  Installing replaces the
function in every namespace that binds it -- each loaded module of the
package (so ``from .x import f`` copies and package re-exports are caught)
and, for methods, every attribute of the owning class that holds it (so
``__rmul__ = __mul__`` is caught too).  A target that no longer exists is
reported as absent instead of failing.

Per target the tracer counts calls, total time (outermost calls only, so
recursion is not counted twice) and self time: total minus the time spent in
wrapped callees.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence


@dataclass
class Target:
    name: str
    # Maps the call's positional arguments to a suffix of the stat name, so
    # one function can be reported per mode (e.g. per CLI verb).
    key: Optional[Callable[[tuple], str]] = None
    # Called as observe(extra, args, result) after the span is closed; its
    # own time is kept out of every span.
    observe: Optional[Callable[[dict, tuple, object], None]] = None


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, package: str, targets: Sequence[Target]):
        self.package = package
        self.targets = list(targets)
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._frames: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _resolve(self, name: str):
        """(owner class or None, original function) or None when absent."""
        module_name, _, qualname = name.partition(".")
        owner = sys.modules.get(f"{self.package}.{module_name}")
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or parts[-1] not in vars(owner):
            return None
        original = vars(owner)[parts[-1]]
        if not callable(original):
            return None
        return (owner if isinstance(owner, type) else None), original

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        frames = self._frames
        fixed = None if target.key else self.stat(target.name)
        observe = target.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = fixed or self.stat(f"{target.name}.{target.key(args)}")
            frames.append(0.0)
            stat.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.depth -= 1
                child = frames.pop()
                stat.calls += 1
                stat.self_s += elapsed - child
                if stat.depth == 0:
                    stat.total_s += elapsed
                if frames:
                    frames[-1] += elapsed
            if observe is not None:
                start = perf_counter()
                observe(stat.extra, args, result)
                if frames:
                    frames[-1] += perf_counter() - start
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == self.package or n.startswith(self.package + ".")]
        self.absent = []
        for target in self.targets:
            found = self._resolve(target.name)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, original = found
            wrapper = self._wrap(target, original)
            namespaces = modules + ([owner] if owner is not None else [])
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
