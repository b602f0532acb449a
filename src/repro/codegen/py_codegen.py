"""OCAL → flat Python: the compiled execution lane (DESIGN.md §12).

The paper's end game is that a synthesized out-of-core program runs at
the speed of a hand-written one.  :func:`compile_exec` takes a *tuned*
(fully block-bound) OCAL program and lowers it **once** into a flat
Python function — straight-line loop nests with the tuned block sizes
baked in as integer constants — which
:class:`~repro.runtime.compiled_backend.CompiledBackend` then calls per
execution.  The model is :mod:`repro.symbolic.compile` (PR 5's costing
fast lane): an emitter producing statements, ``exec``-compiled into a
function, cached per hash-consed program identity.

The generated function has the signature ``_exec(env, rt)`` where
``env`` is the materialized input environment and ``rt`` is the file
backend's evaluator — an instance of
:class:`~repro.runtime.primitives.PrimitiveLibrary`.  Lowering is
*hybrid*:

* the hot shapes are **inlined** — ``for`` loop nests (element and
  blocked form, including the seq-ac request widening), λ application
  with tuple-pattern destructuring into locals, non-merge ``foldL``
  accumulation, ``flatMap`` over a λ, primitives, ``if``/``[e]``/
  ``[]``/``⊔``/tuples/projections;
* everything rare or irreducibly stateful **falls back** to the same
  evaluator methods the interpreter uses (``rt._exec_treefold``,
  ``rt._exec_unfold``, ``rt._exec_partition``, ``rt._exec_builtin``,
  ``rt._eval_app``…), passing an environment dict rebuilt from the
  compile-time scope.

**Counter-parity contract**: generated code performs the same filestore
requests in the same order as the interpreter (every read goes through
``iter_blocks`` with the same fetch size; every spill through the same
builders) and bumps ``rt.iterations``/``rt.hashes`` at the same program
points — so measured byte/seek counters and priced costs are identical,
and only the per-element dispatch overhead disappears.  The
differential conformance oracle pins bag-equality across all backends.

``REPRO_COMPILED_EXEC=0`` disables the lane (the compiled backend then
runs the interpreter path bit-for-bit); the flag is re-read per run so
tests can toggle it with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os
import re

from ..ocal.ast import (
    App,
    Builtin,
    Concat,
    Empty,
    FlatMap,
    FoldL,
    For,
    FuncPow,
    HashPartition,
    If,
    Lam,
    Lit,
    Node,
    Pattern,
    Prim,
    Proj,
    Sing,
    SizeAnnot,
    TreeFold,
    Tup,
    UnfoldR,
    Var,
    free_vars,
    intern_node,
)
from ..ocal.interp import InterpreterError, stable_hash
from ..runtime.accounting import ExecutionError
from ..runtime.filestore import FileList, MemList
from ..runtime.primitives import READ_CHUNK, PrimitiveLibrary, _as_list

__all__ = [
    "CompiledExec",
    "compile_exec",
    "compiled_exec_enabled",
    "clear_exec_cache",
    "exec_cache_size",
]


def compiled_exec_enabled() -> bool:
    """Is the compiled execution lane enabled?

    Controlled by the ``REPRO_COMPILED_EXEC`` environment variable
    (default on; ``0`` falls back to the interpreted FileBackend path).
    Read on every run so tests can flip it with ``monkeypatch.setenv``.
    """
    return os.environ.get("REPRO_COMPILED_EXEC", "1") != "0"


#: sentinel distinguishing "input absent" from any legitimate value.
class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing input>"


_MISSING = _Missing()

_GLOBALS = {
    "MemList": MemList,
    "FileList": FileList,
    "_as_list": _as_list,
    "ExecutionError": ExecutionError,
    "InterpreterError": InterpreterError,
    "_stable_hash": stable_hash,
    "_MISSING": _MISSING,
}

_IDENT = re.compile(r"[^0-9A-Za-z_]")

#: infix primitives lowered to one Python operator application.
_BINOPS = {
    "==": "==", "!=": "!=", "<=": "<=", ">=": ">=", "<": "<", ">": ">",
    "+": "+", "-": "-", "*": "*",
}


def _exec_function(name: str, params: str, lines: list[str], nodes) -> object:
    """Compile generated statements into a function object."""
    source = "\n".join([f"def {name}({params}):"] + lines)
    namespace = dict(_GLOBALS)
    if nodes:
        namespace["_nodes"] = tuple(nodes)
    exec(
        compile(source, f"<repro.codegen.py_codegen:{name}>", "exec"),
        namespace,
    )
    fn = namespace[name]
    fn.__repro_source__ = source
    return fn


class _Emitter:
    """Lowers a tuned OCAL program to straight-line Python statements.

    ``bindings`` is the compile-time scope stack: the ordered (OCAL
    name, Python local) pairs currently live — pushed by loop variables
    and λ patterns, truncated on scope exit.  ``toplevel`` maps the
    program's free variables to lazily-checked locals, preserving the
    interpreter's unbound-variable-only-if-evaluated semantics.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 1
        self._counter = 0
        self.nodes: list[Node] = []
        self.bindings: list[tuple[str, str]] = []
        self.toplevel: dict[str, str] = {}

    # -- plumbing ------------------------------------------------------
    def temp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def local(self, name: str) -> str:
        self._counter += 1
        return f"_v{self._counter}_{_IDENT.sub('_', name)}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def assign(self, expr: str) -> str:
        out = self.temp()
        self.line(f"{out} = {expr}")
        return out

    def as_temp(self, expr: str) -> str:
        if expr.isidentifier():
            return expr
        return self.assign(expr)

    def node_const(self, node: Node) -> str:
        self.nodes.append(node)
        return f"_nodes[{len(self.nodes) - 1}]"

    def env_expr(self) -> str:
        """The interpreter-equivalent environment at this scope: the
        materialized inputs plus every live compile-time binding."""
        if not self.bindings:
            return "env"
        pairs = ", ".join(
            f"{name!r}: {loc}" for name, loc in self.bindings
        )
        return "{**env, " + pairs + "}"

    def emit_raise(self, kind: str, message: str) -> None:
        self.line(f"raise {kind}({message!r})")

    # -- pattern binding -----------------------------------------------
    def bind_pattern(
        self,
        pattern: Pattern,
        value_expr: str | None,
        parts: list[str] | None = None,
    ) -> None:
        """Destructure *value_expr* (or the statically-known component
        exprs *parts*) into fresh locals, with the same arity checks and
        error message as :func:`~repro.runtime.accounting.bind_pattern`."""
        if isinstance(pattern, str):
            loc = self.local(pattern)
            if parts is not None:
                self.line(f"{loc} = ({', '.join(parts)},)")
            else:
                self.line(f"{loc} = {value_expr}")
            self.bindings.append((pattern, loc))
            return
        if parts is not None:
            if len(parts) != len(pattern):
                self.emit_raise(
                    "ExecutionError",
                    f"pattern of arity {len(pattern)} cannot bind this value",
                )
                return
            for sub, part in zip(pattern, parts):
                self.bind_pattern(sub, part)
            return
        # dynamic value: check shape exactly like the runtime binder
        value = self.as_temp(value_expr)
        self.line(
            f"if not isinstance({value}, tuple) "
            f"or len({value}) != {len(pattern)}:"
        )
        self.line(
            f"    raise ExecutionError("
            f"'pattern of arity {len(pattern)} cannot bind this value')"
        )
        for index, sub in enumerate(pattern):
            self.bind_pattern(sub, f"{value}[{index}]")

    # -- value-position lowering ---------------------------------------
    def value(self, expr: Node) -> str:
        if isinstance(expr, Var):
            return self._value_var(expr.name)
        if isinstance(expr, Lit):
            return repr(expr.value)
        if isinstance(expr, Tup):
            items = [self.as_temp(self.value(item)) for item in expr.items]
            return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
        if isinstance(expr, Proj):
            value = self.as_temp(self.value(expr.tup))
            self.line(f"if not isinstance({value}, tuple):")
            self.line(
                "    raise ExecutionError('projection from a non-tuple')"
            )
            self.line(f"if {expr.index} > len({value}):")
            self.line(
                f"    raise ExecutionError('.{expr.index} out of range')"
            )
            return f"{value}[{expr.index - 1}]"
        if isinstance(expr, Prim):
            return self._value_prim(expr)
        if isinstance(expr, If):
            return self._value_if(expr)
        if isinstance(expr, Sing):
            item = self.value(expr.item)
            return self.assign(f"MemList([{item}])")
        if isinstance(expr, Empty):
            return self.assign("MemList([])")
        if isinstance(expr, Concat):
            left = self.as_temp(self.value(expr.left))
            right = self.as_temp(self.value(expr.right))
            return self.assign(f"rt._concat({left}, {right})")
        if isinstance(expr, For):
            sink = self.assign("rt._builder('for')")
            self.for_into(expr, sink)
            return self.assign(f"{sink}.finish()")
        if isinstance(expr, App):
            return self.app(expr, sink=None)
        if isinstance(expr, SizeAnnot):
            return self.value(expr.expr)
        if isinstance(expr, Lam):
            # Closure values capture the interpreter environment; rare
            # (general application is itself a fallback), so defer.
            return self.assign(
                f"rt.eval({self.node_const(expr)}, {self.env_expr()})"
            )
        if isinstance(
            expr,
            (FoldL, FlatMap, TreeFold, UnfoldR, FuncPow, Builtin,
             HashPartition),
        ):
            # Function values: applied through _apply_node (parity with
            # the interpreter, which returns the node itself).
            return self.node_const(expr)
        self.emit_raise(
            "ExecutionError", f"cannot execute {type(expr).__name__}"
        )
        return "None"

    def _value_var(self, name: str) -> str:
        for bound, loc in reversed(self.bindings):
            if bound == name:
                return loc
        loc = self.toplevel.get(name)
        if loc is not None:
            message = f"unbound variable {name!r}"
            self.line(f"if {loc} is _MISSING:")
            self.line(f"    raise ExecutionError({message!r})")
            return loc
        self.emit_raise("ExecutionError", f"unbound variable {name!r}")
        return "None"

    def _value_prim(self, expr: Prim) -> str:
        args = [self.as_temp(self.value(arg)) for arg in expr.args]
        op = expr.op
        if op in _BINOPS:
            return self.assign(f"{args[0]} {_BINOPS[op]} {args[1]}")
        if op == "and":
            return self.assign(f"bool({args[0]}) and bool({args[1]})")
        if op == "or":
            return self.assign(f"bool({args[0]}) or bool({args[1]})")
        if op == "not":
            return self.assign(f"not {args[0]}")
        if op == "min2":
            return self.assign(f"min({args[0]}, {args[1]})")
        if op == "max2":
            return self.assign(f"max({args[0]}, {args[1]})")
        if op == "/":
            self.line(f"if {args[1]} == 0:")
            self.line("    raise InterpreterError('division by zero')")
            return self.assign(
                f"({args[0]} // {args[1]}) "
                f"if (isinstance({args[0]}, int) "
                f"and isinstance({args[1]}, int)) "
                f"else ({args[0]} / {args[1]})"
            )
        if op == "mod":
            self.line(f"if {args[1]} == 0:")
            self.line("    raise InterpreterError('mod by zero')")
            return self.assign(f"{args[0]} % {args[1]}")
        if op == "hash":
            self.line("rt.hashes += 1")
            return self.assign(f"_stable_hash({args[0]})")
        self.emit_raise("InterpreterError", f"unknown primitive {op!r}")
        return "None"

    def _value_if(self, expr: If) -> str:
        cond = self.as_temp(self.value(expr.cond))
        self.line(f"if not isinstance({cond}, bool):")
        self.line("    raise ExecutionError('if condition must be Bool')")
        out = self.temp()
        self.line(f"if {cond}:")
        self.indent += 1
        then = self.value(expr.then)
        self.line(f"{out} = {then}")
        self.indent -= 1
        self.line("else:")
        self.indent += 1
        orelse = self.value(expr.orelse)
        self.line(f"{out} = {orelse}")
        self.indent -= 1
        return out

    # -- list-position lowering ----------------------------------------
    def list_into(self, expr: Node, sink: str) -> None:
        if isinstance(expr, For):
            self.for_into(expr, sink)
            return
        if isinstance(expr, If):
            cond = self.as_temp(self.value(expr.cond))
            self.line(f"if not isinstance({cond}, bool):")
            self.line(
                "    raise ExecutionError('if condition must be Bool')"
            )
            self.line(f"if {cond}:")
            self.indent += 1
            self.list_into(expr.then, sink)
            self.indent -= 1
            self.line("else:")
            self.indent += 1
            self.list_into(expr.orelse, sink)
            self.indent -= 1
            return
        if isinstance(expr, Sing):
            item = self.value(expr.item)
            self.line(f"{sink}.append({item})")
            return
        if isinstance(expr, Empty):
            self.line("pass")
            return
        if isinstance(expr, Concat):
            self.list_into(expr.left, sink)
            self.list_into(expr.right, sink)
            return
        if isinstance(expr, App):
            self.app(expr, sink=sink)
            return
        if isinstance(expr, SizeAnnot):
            self.list_into(expr.expr, sink)
            return
        value = self.assign(f"_as_list({self.value(expr)})")
        self.line(f"if not isinstance({value}, (MemList, FileList)):")
        self.line(
            "    raise ExecutionError('expression did not produce a list')"
        )
        self.line(f"{sink}.extend({value})")

    def for_into(self, expr: For, sink: str) -> None:
        """The inlined loop nest of a (possibly blocked) ``for`` — the
        tuned block size is a baked-in constant."""
        source = self.assign(f"_as_list({self.value(expr.source)})")
        self.line(f"if not isinstance({source}, (MemList, FileList)):")
        self.line("    raise ExecutionError('for iterates over a non-list')")
        block = expr.block_in
        if isinstance(block, str):
            self.emit_raise(
                "ExecutionError",
                f"block parameter {block!r} must be bound before execution",
            )
            return
        mark = len(self.bindings)
        chunk = self.temp()
        if block == 1:
            fetch = self.assign(
                f"rt._fetch_block(1, {expr.seq!r}, {source})"
            )
            element = self.local(expr.var)
            self.line(f"for {chunk} in {source}.iter_blocks({fetch}):")
            self.indent += 1
            self.line(f"for {element} in {chunk}:")
            self.indent += 1
            self.line("rt.iterations += 1")
            self.bindings.append((expr.var, element))
            self.list_into(expr.body, sink)
            self.indent -= 2
        else:
            # The request may be widened under seq-ac, but the *logical*
            # block the body sees keeps its tuned size.
            fetch = self.assign(
                f"rt._fetch_block({block}, {expr.seq!r}, {source})"
            )
            self.line(f"{fetch} = max({block}, ({fetch} // {block}) * {block})")
            base = self.temp()
            blockvar = self.local(expr.var)
            self.line(f"for {chunk} in {source}.iter_blocks({fetch}):")
            self.indent += 1
            self.line(
                f"for {base} in range(0, len({chunk}), {block}):"
            )
            self.indent += 1
            self.line(
                f"{blockvar} = MemList({chunk}[{base} : {base} + {block}], "
                f"sorted={source}.sorted)"
            )
            self.line("rt.iterations += 1")
            self.bindings.append((expr.var, blockvar))
            self.list_into(expr.body, sink)
            self.indent -= 2
        del self.bindings[mark:]

    # -- application ---------------------------------------------------
    def app(self, expr: App, sink: str | None) -> str | None:
        """Lower an application.  With *sink*, stream the result into it
        and return ``None``; otherwise return the value expression."""
        fn = expr.fn
        if isinstance(fn, Lam):
            arg = self.as_temp(self.value(expr.arg))
            mark = len(self.bindings)
            self.bind_pattern(fn.pattern, arg)
            if sink is not None:
                self.list_into(fn.body, sink)
                del self.bindings[mark:]
                return None
            result = self.as_temp(self.value(fn.body))
            out = self.assign(result)
            del self.bindings[mark:]
            return out
        if isinstance(fn, FlatMap) and isinstance(fn.fn, Lam):
            return self._app_flatmap(fn, expr.arg, sink)
        if isinstance(fn, FoldL):
            return self._sink_value(self._app_fold(fn, expr.arg), sink)
        if isinstance(fn, UnfoldR) and isinstance(fn.fn, Lam):
            # λ steps always take the interpreter's generic path (mrg
            # and zip are Builtin/FuncPow), so inlining here cannot
            # diverge from the merge/zip fast lanes.
            return self._app_unfold(fn, expr.arg, sink)
        if isinstance(
            fn,
            (FlatMap, UnfoldR, TreeFold, Builtin, HashPartition, FuncPow),
        ):
            return self._app_node(fn, expr.arg, sink)
        # General application (computed function value): full fallback.
        node = self.node_const(expr)
        if sink is not None:
            self.line(f"rt.eval_list({node}, {self.env_expr()}, {sink})")
            return None
        return self.assign(f"rt._eval_app({node}, {self.env_expr()}, None)")

    def _sink_value(self, result: str, sink: str | None) -> str | None:
        """Route a value-producing application per the interpreter's
        ``eval_list``: in list position, extend the sink with it."""
        if sink is None:
            return result
        self.line(f"{sink}.extend(_as_list({result}))")
        return None

    def _app_flatmap(
        self, fn: FlatMap, arg_node: Node, sink: str | None
    ) -> str | None:
        arg = self.as_temp(self.value(arg_node))
        source = self.assign(f"_as_list({arg})")
        self.line(f"if not isinstance({source}, (MemList, FileList)):")
        self.line("    raise ExecutionError('flatMap consumes a non-list')")
        inner = fn.fn
        own = sink if sink is not None else self.assign(
            "rt._builder('flatmap')"
        )
        chunk, element = self.temp(), self.temp()
        self.line(f"for {chunk} in {source}.iter_blocks({READ_CHUNK}):")
        self.indent += 1
        self.line(f"for {element} in {chunk}:")
        self.indent += 1
        self.line("rt.iterations += 1")
        mark = len(self.bindings)
        self.bind_pattern(inner.pattern, element)
        self.list_into(inner.body, own)
        del self.bindings[mark:]
        self.indent -= 2
        if sink is not None:
            return None
        return self.assign(f"{own}.finish()")

    def _app_fold(self, fn: FoldL, arg_node: Node) -> str:
        arg = self.as_temp(self.value(arg_node))
        source = self.assign(f"_as_list({arg})")
        self.line(f"if not isinstance({source}, (MemList, FileList)):")
        self.line("    raise ExecutionError('foldL consumes a non-list')")
        block = fn.block_in
        if isinstance(block, str):
            self.emit_raise(
                "ExecutionError", f"unbound block parameter {block!r}"
            )
            return "None"
        if PrimitiveLibrary._is_merge_fn(fn.fn):
            return self.assign(
                f"rt._fold_merge({source}, {max(1, block)})"
            )
        acc = self.assign(self.value(fn.init))
        step = fn.fn
        if not isinstance(step, Lam):
            self.emit_raise(
                "ExecutionError",
                f"cannot execute foldL step {type(step).__name__}",
            )
            return "None"
        fetch = self.assign(
            f"rt._fetch_block({max(1, block)}, {fn.seq!r}, {source})"
        )
        chunk, element = self.temp(), self.temp()
        self.line(f"for {chunk} in {source}.iter_blocks({fetch}):")
        self.indent += 1
        self.line(f"for {element} in {chunk}:")
        self.indent += 1
        self.line("rt.iterations += 1")
        mark = len(self.bindings)
        self.bind_pattern(step.pattern, None, parts=[acc, element])
        body = self.value(step.body)
        self.line(f"{acc} = {body}")
        del self.bindings[mark:]
        self.indent -= 2
        return acc

    def _app_unfold(
        self, fn: UnfoldR, arg_node: Node, sink: str | None
    ) -> str | None:
        """Inlined generic unfold: the λ step body compiles once and
        runs per emitted chunk, instead of the interpreter's per-step
        env-copy + AST re-walk.  Control flow, fetch requests, and
        error text mirror ``rt._exec_unfold``/``rt._unfold_generic``
        exactly, so all measured counters stay identical."""
        arg = self.as_temp(self.value(arg_node))
        self.line(f"if not isinstance({arg}, tuple):")
        self.line(
            "    raise ExecutionError('unfoldR consumes a tuple of lists')"
        )
        lists = self.assign(f"[_as_list(_i) for _i in {arg}]")
        block = fn.block_in
        if isinstance(block, str):
            self.emit_raise(
                "ExecutionError", f"unbound block parameter {block!r}"
            )
            return "None"
        block = max(1, block)
        own = sink if sink is not None else self.assign(
            "rt._builder('unfold')"
        )
        fetch = self.assign(
            f"min(rt._fetch_block({block}, {fn.seq!r}, _l, "
            f"streams=max(1, len({lists}))) for _l in {lists}) "
            f"if {lists} else {block}"
        )
        state = self.assign(
            f"tuple(_l.with_readahead({fetch}) for _l in {lists})"
        )
        budget = self.assign(f"sum(len(_l) for _l in {state}) + 1")
        step = fn.fn
        self.line(f"while any(len(_l) for _l in {state}):")
        self.indent += 1
        self.line(f"if {budget} <= 0:")
        self.line(
            "    raise ExecutionError("
            "'unfoldR step function does not make progress')"
        )
        self.line("rt.iterations += 1")
        mark = len(self.bindings)
        self.bind_pattern(step.pattern, state)
        result = self.as_temp(self.value(step.body))
        del self.bindings[mark:]
        self.line(
            f"if not isinstance({result}, tuple) or len({result}) != 2:"
        )
        self.line(
            "    raise ExecutionError("
            "'unfoldR step must return ⟨[τr], state⟩')"
        )
        chunk = self.assign(f"_as_list({result}[0])")
        self.line(f"if not isinstance({chunk}, (MemList, FileList)):")
        self.line(
            "    raise ExecutionError("
            "'unfoldR step must return ⟨[τr], state⟩')"
        )
        self.line(f"{own}.extend({chunk})")
        self.line(f"{state} = {result}[1]")
        self.line(f"{budget} -= 1")
        self.indent -= 1
        if sink is not None:
            return None
        return self.assign(f"{own}.finish(sorted=True)")

    def _app_node(
        self, fn: Node, arg_node: Node, sink: str | None
    ) -> str | None:
        """Primitive-library application: the argument is compiled, the
        combinator itself runs through the same evaluator entry point
        the interpreter dispatches to."""
        arg = self.as_temp(self.value(arg_node))
        node = self.node_const(fn)
        env = self.env_expr()
        if isinstance(fn, FlatMap):  # non-λ inner function
            call = f"rt._exec_flatmap({node}, {arg}, {env}, {sink or None})"
            if sink is not None:
                self.line(call)
                return None
            return self.assign(call)
        if isinstance(fn, UnfoldR):
            call = f"rt._exec_unfold({node}, {arg}, {env}, {sink or None})"
            if sink is not None:
                self.line(call)
                return None
            return self.assign(call)
        if isinstance(fn, TreeFold):
            result = self.assign(f"rt._exec_treefold({node}, {arg}, {env})")
        elif isinstance(fn, Builtin):
            result = self.assign(f"rt._exec_builtin({fn.name!r}, {arg})")
        elif isinstance(fn, HashPartition):
            result = self.assign(f"rt._exec_partition({node}, {arg})")
        else:  # FuncPow
            result = self.assign(
                f"rt._funcpow_callable({node}, {env})({arg})"
            )
        return self._sink_value(result, sink)


class CompiledExec:
    """A tuned OCAL program compiled to a flat executor.

    * ``program`` — the (interned) source program;
    * ``fn`` — the generated function ``fn(env, rt)`` returning the
      program's result value (the backend normalizes builders/lists);
    * ``source`` — the generated Python text (inspectable, testable).
    """

    __slots__ = ("program", "fn", "source")

    def __init__(self, program: Node) -> None:
        program = intern_node(program)
        emitter = _Emitter()
        for name in sorted(free_vars(program)):
            loc = emitter.local(name)
            emitter.line(f"{loc} = env.get({name!r}, _MISSING)")
            emitter.toplevel[name] = loc
        result = emitter.value(program)
        emitter.line(f"return {result}")
        fn = _exec_function("_exec", "env, rt", emitter.lines, emitter.nodes)
        self.program = program
        self.fn = fn
        self.source = fn.__repro_source__


_EXEC_CACHE: dict[int, CompiledExec] = {}
_EXEC_CACHE_MAX = 1 << 14
#: hard references keeping cached programs alive so ``id`` keys stay
#: unambiguous (mirrors the costing lane's cache).
_EXEC_CACHE_PROGRAMS: list[Node] = []


def compile_exec(program: Node) -> CompiledExec:
    """Compile (with per-interned-program caching) to a flat executor."""
    interned = intern_node(program)
    cached = _EXEC_CACHE.get(id(interned))
    if cached is not None:
        return cached
    compiled = CompiledExec(interned)
    if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
        clear_exec_cache()
    _EXEC_CACHE[id(interned)] = compiled
    _EXEC_CACHE_PROGRAMS.append(interned)
    return compiled


def exec_cache_size() -> int:
    """Number of compiled programs currently cached."""
    return len(_EXEC_CACHE)


def clear_exec_cache() -> None:
    """Drop all cached compiled programs (tests, memory pressure)."""
    _EXEC_CACHE.clear()
    _EXEC_CACHE_PROGRAMS.clear()
