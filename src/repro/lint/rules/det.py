"""DET — determinism rules.

The fleet's headline guarantee (PR 1) is a byte-identical
``aggregate.json`` at any worker count; the simulation paths therefore
must not read wall clocks or OS entropy, must route all randomness
through :class:`repro.simkernel.rng.RngStreams` / ``derive_seed``, and
must not let hash-order (set iteration, unsorted JSON) reach any
serialized output. Monotonic timers (``time.perf_counter``) stay legal:
they are telemetry, and never feed the deterministic surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import call_name, dotted_name, is_set_expr, keyword_arg
from repro.lint.engine import Module
from repro.lint.finding import Finding
from repro.lint.registry import rule

#: Paths of the determinism contract (ISSUE: simkernel/core/fleet/nas);
#: ``traces`` joined once the corpus generator moved onto explicit rngs,
#: ``serve`` when the resident daemon took over the byte-parity pledge
#: (its one sanctioned wall-clock read, registry metadata, carries an
#: explicit ``seedlint: disable=DET001``), ``testbed``/``infra`` when
#: cohort runs made their per-UE streams part of the byte-parity
#: invariant (wall reads there are perf_counter telemetry only).
DET_SCOPE = ("simkernel", "core", "fleet", "nas", "serve", "testbed",
             "infra")
DET_RNG_SCOPE = DET_SCOPE + ("traces",)
#: Iteration/dump-order discipline: the fleet prefix deliberately
#: covers the result cache (``fleet/resultcache.py``), whose keys and
#: pack bodies are canonical JSON: an unsorted dump there would fork
#: the key space.
DET_ORDER_SCOPE = ("core", "fleet", "serve", "analysis/incremental.py")
#: Memoization rules also cover the crypto kernels (PR 4 hot paths).
DET_CACHE_SCOPE = DET_SCOPE + ("crypto",)
#: Maintenance-timer purity covers everywhere such timers are armed:
#: the kernel's own samplers plus the device/testbed periodic loops.
DET_TIMER_SCOPE = DET_SCOPE + ("device", "testbed")

# Wall-clock / entropy reads that make reruns diverge. Matched as
# dotted-name suffixes so both ``datetime.now`` and
# ``datetime.datetime.now`` resolve.
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "uuid.uuid1": "clock/MAC-derived identifier",
    "uuid.uuid4": "OS entropy read",
    "secrets.token_bytes": "OS entropy read",
    "secrets.token_hex": "OS entropy read",
    "secrets.randbits": "OS entropy read",
}

# Module-level functions of ``random`` that draw from the shared global
# stream. ``random.Random(seed)`` instantiation is explicitly allowed —
# that *is* the deterministic idiom RngStreams builds on.
_GLOBAL_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}

# Consumers that freeze a set's (hash-dependent) iteration order into
# an ordered value. ``sorted`` is the sanctioned escape hatch.
_ORDER_FREEZERS = {"tuple", "list", "enumerate", "iter", "next"}


def _match_banned(dotted: str) -> str | None:
    for banned, why in _BANNED_CALLS.items():
        if dotted == banned or dotted.endswith("." + banned):
            return why
    return None


@rule(
    "DET001",
    "no wall-clock or OS-entropy reads in simulation paths "
    "(time.time/datetime.now/os.urandom/uuid4/...)",
    scope=DET_SCOPE,
)
def det001_wall_clock(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = call_name(node)
        if dotted is None:
            continue
        why = _match_banned(dotted)
        if why is not None:
            yield Finding(
                module.path, node.lineno, node.col_offset, "DET001",
                f"call to {dotted}() is a {why}; inject a clock or derive "
                f"entropy via simkernel.rng.derive_seed",
            )


@rule(
    "DET002",
    "no global random-module draws; randomness flows through "
    "RngStreams/derive_seed or an explicit random.Random instance",
    scope=DET_RNG_SCOPE,
)
def det002_global_random(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            dotted = call_name(node)
            if dotted is not None and "." in dotted:
                head, _, fn = dotted.rpartition(".")
                if head == "random" and fn in _GLOBAL_RANDOM_FNS:
                    yield Finding(
                        module.path, node.lineno, node.col_offset, "DET002",
                        f"{dotted}() draws from the process-global random "
                        f"stream; use RngStreams or a seeded random.Random",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name in _GLOBAL_RANDOM_FNS:
                        yield Finding(
                            module.path, node.lineno, node.col_offset, "DET002",
                            f"'from random import {alias.name}' imports a "
                            f"global-stream draw; import Random and seed it",
                        )


def _set_order_findings(module: Module, node: ast.AST, what: str) -> Finding:
    return Finding(
        module.path, node.lineno, node.col_offset, "DET003",
        f"{what} freezes hash-dependent set order into serialized state; "
        f"wrap in sorted(...) or preserve insertion order",
    )


@rule(
    "DET003",
    "no hash-order-dependent set iteration feeding ordered/serialized "
    "state (wrap in sorted or keep insertion order)",
    scope=DET_ORDER_SCOPE,
)
def det003_set_order(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expr(node.iter):
            yield _set_order_findings(module, node.iter, "iterating a set")
        elif isinstance(node, ast.comprehension) and is_set_expr(node.iter):
            yield _set_order_findings(
                module, node.iter, "comprehension over a set"
            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_FREEZERS
                and node.args
                and is_set_expr(node.args[0])
            ):
                yield _set_order_findings(
                    module, node, f"{func.id}() over a set"
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and is_set_expr(node.args[0])
            ):
                yield _set_order_findings(module, node, "str.join over a set")


@rule(
    "DET004",
    "json.dumps/json.dump on the deterministic surface must pass "
    "sort_keys=True",
    scope=DET_ORDER_SCOPE,
)
def det004_unsorted_json(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = call_name(node)
        if dotted not in ("json.dumps", "json.dump"):
            continue
        sort_keys = keyword_arg(node, "sort_keys")
        if not (
            isinstance(sort_keys, ast.Constant) and sort_keys.value is True
        ):
            yield Finding(
                module.path, node.lineno, node.col_offset, "DET004",
                f"{dotted}() without sort_keys=True serializes dict "
                f"insertion order; the aggregate surface must be key-sorted",
            )


#: Annotation names that make a safe memoization key: immutable scalars
#: whose equality is value equality, so a cache hit is byte-for-byte
#: indistinguishable from recomputing.
_PURE_KEY_TYPES = {"bytes", "int", "str", "bool"}


def _cache_decorator(node: ast.expr) -> tuple[str, ast.Call | None] | None:
    """(dotted decorator name, call node or None) for cache decorators."""
    call = None
    target = node
    if isinstance(node, ast.Call):
        call = node
        target = node.func
    dotted = dotted_name(target)
    if dotted in ("cache", "functools.cache", "lru_cache", "functools.lru_cache"):
        return dotted, call
    return None


def _pure_key_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """None if every parameter is annotated with a pure-key scalar type;
    otherwise the name of the first offending parameter."""
    arguments = fn.args
    if arguments.vararg is not None:
        return "*" + arguments.vararg.arg
    if arguments.kwarg is not None:
        return "**" + arguments.kwarg.arg
    for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
        annotation = arg.annotation
        if not (
            isinstance(annotation, ast.Name)
            and annotation.id in _PURE_KEY_TYPES
        ):
            return arg.arg
    return None


@rule(
    "DET005",
    "memoization on the deterministic surface must be bounded "
    "(lru_cache with a finite maxsize) and keyed purely by immutable "
    "scalars (bytes/int/str/bool annotations on every parameter)",
    scope=DET_CACHE_SCOPE,
)
def det005_unsafe_memoization(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            matched = _cache_decorator(decorator)
            if matched is None:
                continue
            dotted, call = matched
            if dotted.endswith("cache") and not dotted.endswith("lru_cache"):
                yield Finding(
                    module.path, decorator.lineno, decorator.col_offset, "DET005",
                    f"@{dotted} is unbounded; use lru_cache with a finite "
                    f"maxsize so long fleet runs cannot grow memory without bound",
                )
                continue
            if call is not None:
                maxsize = keyword_arg(call, "maxsize")
                if maxsize is None and call.args:
                    maxsize = call.args[0]
                if isinstance(maxsize, ast.Constant) and maxsize.value is None:
                    yield Finding(
                        module.path, decorator.lineno, decorator.col_offset, "DET005",
                        "lru_cache(maxsize=None) is unbounded; give the cache "
                        "a finite maxsize",
                    )
                    continue
            offending = _pure_key_params(node)
            if offending is not None:
                yield Finding(
                    module.path, decorator.lineno, decorator.col_offset, "DET005",
                    f"memoized {node.name}() parameter {offending!r} is not "
                    f"annotated as a pure immutable key (bytes/int/str/bool); "
                    f"cache hits could alias mutable or identity-keyed state",
                )


# ---------------------------------------------------------------------------
# DET006 — maintenance-timer purity
# ---------------------------------------------------------------------------
# Quiescent termination (PR 5) discards every pending maintenance event
# when the run settles. That is only sound if a maintenance timer is
# pure steady-state churn: a bound method of the arming object that
# keeps re-arming itself with ``maintenance=True`` and mutates no state
# outside its own object. A maintenance tick that wrote into a foreign
# object could make the elided tail observable — the exact divergence
# the flag exists to rule out.

def _is_maint_schedule(node: ast.Call) -> bool:
    dotted = call_name(node)
    if dotted is None:
        return False
    tail = dotted.rpartition(".")[2]
    if tail not in ("schedule", "schedule_fire"):
        return False
    flag = keyword_arg(node, "maintenance")
    return isinstance(flag, ast.Constant) and flag.value is True


def _self_method(expr: ast.expr) -> str | None:
    """The method name of a ``self.<name>`` expression, else None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _store_roots(fn: ast.AST) -> Iterator[tuple[ast.AST, ast.expr]]:
    """(statement, store-target) pairs for attribute/subscript stores."""
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            stack = [target]
            while stack:
                item = stack.pop()
                if isinstance(item, (ast.Tuple, ast.List)):
                    stack.extend(item.elts)
                elif isinstance(item, ast.Starred):
                    stack.append(item.value)
                elif isinstance(item, (ast.Attribute, ast.Subscript)):
                    yield node, item


def _foreign_store(fn: ast.AST) -> ast.AST | None:
    """First statement storing through a root other than ``self``."""
    for statement, target in _store_roots(fn):
        root: ast.expr = target
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id == "self"):
            return statement
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            return node
    return None


def _rearms(fn: ast.AST, arming_methods: set[str]) -> bool:
    """Does ``fn`` re-arm a maintenance timer, directly or via a
    ``self.<helper>()`` call to a method that does?"""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if _is_maint_schedule(node):
            return True
        helper = _self_method(node.func)
        if helper is not None and helper in arming_methods:
            return True
    return False


@rule(
    "DET006",
    "maintenance=True timers must be pure self-rescheduling: the "
    "callback is a bound method of the arming object that re-arms with "
    "maintenance=True and writes no state outside self",
    scope=DET_TIMER_SCOPE,
)
def det006_maintenance_purity(module: Module) -> Iterator[Finding]:
    handled: set[int] = set()
    for class_node in ast.walk(module.tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        methods = {
            item.name: item
            for item in class_node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        arming_methods = {
            name for name, fn in methods.items()
            if any(
                isinstance(node, ast.Call) and _is_maint_schedule(node)
                for node in ast.walk(fn)
            )
        }
        for fn in methods.values():
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and _is_maint_schedule(node)):
                    continue
                handled.add(id(node))
                callback = node.args[1] if len(node.args) >= 2 else None
                method_name = _self_method(callback) if callback is not None else None
                if method_name is None:
                    yield Finding(
                        module.path, node.lineno, node.col_offset, "DET006",
                        "maintenance timer callback must be a bound "
                        "self.<method> of the arming object, so the elided "
                        "tail stays inside one subsystem",
                    )
                    continue
                tick = methods.get(method_name)
                if tick is None:
                    yield Finding(
                        module.path, node.lineno, node.col_offset, "DET006",
                        f"maintenance timer callback self.{method_name} is "
                        f"not defined on {class_node.name}; its purity "
                        f"cannot be verified",
                    )
                    continue
                if not _rearms(tick, arming_methods):
                    yield Finding(
                        module.path, tick.lineno, tick.col_offset, "DET006",
                        f"maintenance tick {class_node.name}.{method_name}() "
                        f"never re-arms with maintenance=True; a one-shot "
                        f"action is substantive work and must not carry the "
                        f"maintenance flag",
                    )
                offender = _foreign_store(tick)
                if offender is not None:
                    yield Finding(
                        module.path, offender.lineno, offender.col_offset,
                        "DET006",
                        f"maintenance tick {class_node.name}.{method_name}() "
                        f"writes state outside self; eliding it at quiescence "
                        f"would change observable state",
                    )
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and _is_maint_schedule(node)
            and id(node) not in handled
        ):
            yield Finding(
                module.path, node.lineno, node.col_offset, "DET006",
                "maintenance timer armed outside a class method; the "
                "callback cannot be verified as pure self-rescheduling",
            )
