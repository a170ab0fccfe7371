"""Lowering: each checked C function becomes one generated Python
generator function.

The interpreter does not walk the AST.  :func:`lower_program` emits
Python source for a whole :class:`~repro.lang.checker.CheckedProgram`
once and compiles it; the code object is cached on the program.
:func:`bind` then instantiates it for one
:class:`~repro.runtime.interpreter.Interpreter`, supplying the layout's
facts (global bases, element strides, field offsets, group address
tables, indirected-field flags) as closure constants.

Shape of the generated code
---------------------------

* A C function ``f`` becomes ``f_f(proc, v_a, ...)``; C loops become
  ``while True`` loops and every C statement begins with a literal
  ``yield`` — the scheduling point the round-robin quantum and the
  steal grain count.  A C call is ``yield from``, so one ``next()``
  resumes at the depth of the C call stack.  A ``create`` target takes
  ``spawned=True`` from the spawn, which makes its first step a bare
  ``yield`` (a worker's first step happens under the scheduler).
* C identifiers never reach the source raw: locals are ``v_<name>``
  (their value) or ``p_<name>`` (their private address), functions
  ``f_<name>``, and globals are never named at all —
  only numbered layout constants.  Every generated helper name starts
  with a different prefix.
* A local lives in a Python variable unless its address is taken or it
  is an aggregate; those live in private memory, exactly as before.  A
  C name maps to one variable per function, which keeps the old
  per-call frame semantics (an inner redeclaration rebinds the name).
* A static access path — a shared global followed by array indices
  and ``.`` fields — resolves to ``T[flat] + Σ idx·stride`` where the
  table ``T`` is a ``range`` (natural or padded placement) or a tuple
  (group & transpose), bound per layout.  A path that crosses a field
  the layout indirects takes the runtime walk
  (:meth:`Interpreter._walk`) instead.
* Counters are added in batches: the ``work``/``private_refs``/
  ``shared_refs`` increments of a straight-line segment are summed at
  lowering time and added once where the segment ends.  Each arm of a
  short-circuit ``&&``/``||`` carries its own count.

What a ``work`` unit counts (unchanged from the tree-walking
evaluator): one per executed statement, one per expression node
evaluated for its value, and one per node evaluated as an lvalue — so
a variable read as a value costs two (the value and its place), and
``&x`` in ``lock(&x)`` counts only ``x``.
"""

from __future__ import annotations

import ctypes
import math
import re
import threading
from dataclasses import dataclass, field

from repro.errors import RuntimeFault
from repro.lang import astnodes as A
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.runtime.builtins import PURE_IMPLS

#: Builtins lowered to inline Python expressions (pure and unable to
#: raise on numbers); the other pure builtins are called.
_INLINE_BUILTINS = {
    "min": "({0} if {0} < {1} else {1})",
    "max": "({0} if {0} > {1} else {1})",
    "fmin": "({0} if {0} < {1} else {1})",
    "fmax": "({0} if {0} > {1} else {1})",
    "abs": "abs({0})",
    "fabs": "abs({0})",
}

#: Pure builtins whose result is always a Python float.
_FLOAT_BUILTINS = frozenset(
    {"sqrt", "sin", "cos", "exp", "pow", "tofloat", "rndf"}
)

_CMP = {"==", "!=", "<", "<=", ">", ">="}


@dataclass(slots=True)
class Lowered:
    """A program lowered to Python: the compiled module plus the tables
    :func:`bind` needs to supply its per-layout constants."""

    code: object
    source: str
    #: the runtime helpers and layout constants the code uses, in the
    #: order ``_bind`` takes them
    names: tuple[str, ...] = ()
    #: static access paths: (global, steps); a step is ("idx",) or
    #: ("field", struct, field)
    chains: list[tuple[str, tuple]] = field(default_factory=list)
    #: per chain: True when the path lowers in step order (see
    #: ``_Emitter.finalize``) and binds ``K`` instead of ``X``
    ordered: list[bool] = field(default_factory=list)
    #: (struct, field) pairs accessed through a raw address
    fields: list[tuple[str, str]] = field(default_factory=list)
    #: types whose size is layout-dependent
    sizes: list[T.CType] = field(default_factory=list)
    #: frame types of locals/params (private-address bookkeeping)
    types: list[T.CType] = field(default_factory=list)
    locs: list = field(default_factory=list)
    allocs: list[A.Alloc] = field(default_factory=list)


#: One lowering at a time: compiling the generated source briefly takes
#: a few MB, and the job service interprets on several threads.
_LOWER_LOCK = threading.Lock()


def _heap_trimmer():
    """glibc's ``malloc_trim``, or None where there is none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None


_MALLOC_TRIM = _heap_trimmer()


def lower_program(checked: CheckedProgram) -> Lowered:
    """Lower ``checked`` (once; the result is cached on the program)."""
    with _LOWER_LOCK:
        if checked.lowered is None:
            checked.lowered = _Lowerer(checked).lower()
            if _MALLOC_TRIM is not None:
                # compile() frees its parser scratch (a few MB) into the
                # C heap of the calling thread, where it stays resident;
                # handing it back keeps a multi-threaded job service at
                # the footprint of the tree-walking interpreter
                _MALLOC_TRIM(0)
        return checked.lowered


def bind(interp) -> dict:
    """Instantiate the lowered program for one interpreter: C function
    name -> the generator function running it."""
    low = lower_program(interp.checked)
    layout = interp.layout
    env = {
        "mem": interp.mem,
        "cols": interp.trace.column_appends(),
        "I": interp,
        "RF": RuntimeFault,
        "PB": type(interp).private_base,
        "NP": interp.nprocs,
        "oob": _oob,
        "ind": interp._apply_field,
        "walk": interp._walk,
        "alloc": interp._alloc_obj,
        "falloc": interp._frame_alloc,
        "spawn": interp._spawn,
        "out": interp.output.append,
        "barrier": interp._barrier,
        "lock": interp._lock,
        "unlock": interp._unlock,
        "join": interp._join,
        "m_sqrt": math.sqrt,
    }
    for name, impl in PURE_IMPLS.items():
        env[f"B_{name}"] = impl
    for c, (base, steps) in enumerate(low.chains):
        # ordinal of the first field this layout indirects (0: none)
        fields = [s for s in steps if s[0] == "field"]
        cut = next(
            (n for n, s in enumerate(fields, 1) if layout.is_indirected(s[1], s[2])),
            0,
        )
        env[f"K{c}" if low.ordered[c] else f"X{c}"] = cut
        if cut:  # the generated code takes the runtime walk instead
            table, strides = None, [None] * _trailing(steps)
        else:
            table, strides, _ = layout.place_table(
                base, [("idx", None) if s[0] == "idx" else ("field", s[2]) for s in steps]
            )
        env[f"T{c}"] = table
        for j, stride in enumerate(strides):
            env[f"S{c}_{j}"] = stride
    for n, (sname, fname) in enumerate(low.fields):
        env[f"O{n}"] = layout.field_of(sname, fname).offset
        env[f"D{n}"] = layout.is_indirected(sname, fname)
        env[f"F{n}"] = (sname, fname)
    for n, ty in enumerate(low.sizes):
        env[f"Z{n}"] = layout.sizeof(ty)
    for n, ty in enumerate(low.types):
        env[f"Y{n}"] = ty
    for n, loc in enumerate(low.locs):
        env[f"L{n}"] = loc
    for n, node in enumerate(low.allocs):
        env[f"N{n}"] = node
    ns: dict = {}
    exec(low.code, ns)
    return ns["_bind"](*[env[name] for name in low.names])


def _trailing(steps: tuple) -> int:
    """Index steps of a static access path that follow a field (into
    arrays inside structs; each has a layout-bound stride)."""
    first = next((k for k, s in enumerate(steps) if s[0] == "field"), len(steps))
    return sum(1 for s in steps[first:] if s[0] == "idx")


def _oob(idx, dim, loc):
    raise RuntimeFault(f"index {idx} out of bounds [0, {dim}) ", loc)


def _mangle(prefix: str, name: str) -> str:
    """A generated identifier for C name ``name``: prefix + name for
    ASCII identifiers, prefix + 'x' + hex otherwise (C names are letters,
    digits and underscores; the lexer accepts non-ASCII letters)."""
    if name.isascii() and name.isidentifier():
        return f"{prefix}_{name}"
    return f"{prefix}x_{name.encode().hex()}"


def _default_literal(ty: T.CType) -> str:
    return "0.0" if isinstance(ty, T.DoubleType) else "0"


def scalar_size(ty: T.CType) -> int:
    """Bytes one load or store of a ``ty`` place references."""
    if isinstance(ty, (T.ArrayType, T.StructType)):
        return 8
    return ty.size


def _inner(ty: T.ArrayType) -> T.CType:
    return T.ArrayType(ty.elem, ty.dims[1:]) if len(ty.dims) > 1 else ty.elem


def _addr_taken_names(fn: A.FuncDef, checked: CheckedProgram) -> set[str]:
    """Names of locals/params of ``fn`` that must live in private memory:
    address taken (``&x``, possibly through indices/fields) or an
    aggregate."""
    names: set[str] = set()
    for st in A.walk_stmts(fn.body):
        if isinstance(st, A.VarDecl) and not st.type.is_scalar:
            names.add(st.name)
        for e in A.stmt_exprs(st):
            if isinstance(e, A.UnOp) and e.op == "&":
                root = e.operand
                while isinstance(root, (A.Index, A.Member)) and not (
                    isinstance(root, A.Member) and root.arrow
                ):
                    if isinstance(root, A.Index) and not isinstance(
                        root.base.ty, T.ArrayType
                    ):
                        break
                    root = root.base
                if isinstance(root, A.Ident):
                    sym = checked.symtab.ident_symbols.get(id(root))
                    if sym is not None and not sym.is_shared:
                        names.add(root.name)
    return names


class _Lowerer:
    """Program-level state: constant pools and the emitted module."""

    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.low = Lowered(code=None, source="")
        self._chain_ids: dict[tuple, int] = {}
        self._field_ids: dict[tuple[str, str], int] = {}
        self._size_ids: dict[T.CType, int] = {}
        self._type_ids: dict[T.CType, int] = {}
        self._loc_ids: dict[object, int] = {}
        funcs = checked.program.funcs
        self.memory_names = {
            fn.name: _addr_taken_names(fn, checked) for fn in funcs
        }
        #: private addresses are observable only through a memory-resident
        #: local; only then is the per-process stack cursor kept
        self.track_cursor = any(self.memory_names.values())

    # -- constant pools ------------------------------------------------------

    def chain(self, base: str, steps: tuple, ordered: bool) -> int:
        key = (base, steps, ordered)
        c = self._chain_ids.get(key)
        if c is None:
            c = self._chain_ids[key] = len(self.low.chains)
            self.low.chains.append((base, steps))
            self.low.ordered.append(ordered)
        return c

    def field(self, sname: str, fname: str) -> int:
        return self._pool(self._field_ids, self.low.fields, (sname, fname))

    def size(self, ty: T.CType) -> str:
        """Literal size for scalar types; a layout constant otherwise."""
        if ty.is_scalar:
            return str(ty.size)
        return f"Z{self._pool(self._size_ids, self.low.sizes, ty)}"

    def ftype(self, ty: T.CType) -> str:
        return f"Y{self._pool(self._type_ids, self.low.types, ty)}"

    def loc(self, loc) -> str:
        return f"L{self._pool(self._loc_ids, self.low.locs, loc)}"

    def alloc(self, node: A.Alloc) -> str:
        self.low.allocs.append(node)
        return f"N{len(self.low.allocs) - 1}"

    @staticmethod
    def _pool(ids: dict, items: list, key) -> int:
        n = ids.get(key)
        if n is None:
            n = ids[key] = len(items)
            items.append(key)
        return n

    # -- module --------------------------------------------------------------

    def lower(self) -> Lowered:
        workers = self.checked.worker_names
        bodies: list[str] = []
        for fn in self.checked.program.funcs:
            bodies += _Emitter(self, fn, spawned=fn.name in workers).emit()
        low = self.low
        consts = (
            "mem cols I RF PB NP oob ind walk alloc falloc spawn out barrier "
            "lock unlock join m_sqrt"
        ).split()
        consts += [f"B_{name}" for name in PURE_IMPLS]
        for c, (base, steps) in enumerate(low.chains):
            consts += [f"K{c}" if low.ordered[c] else f"X{c}", f"T{c}"]
            consts += [f"S{c}_{j}" for j in range(_trailing(steps))]
        for n in range(len(low.fields)):
            consts += [f"O{n}", f"D{n}", f"F{n}"]
        consts += [f"Z{n}" for n in range(len(low.sizes))]
        consts += [f"Y{n}" for n in range(len(low.types))]
        consts += [f"L{n}" for n in range(len(low.locs))]
        consts += [f"N{n}" for n in range(len(low.allocs))]
        used = set(re.findall(r"\w+", "\n".join(bodies))) | {"mem", "cols"}
        low.names = tuple(name for name in consts if name in used)
        head = [
            f"def _bind({', '.join(low.names)}):",
            "    mg = mem.get",
            "    tp, ta, ts, tw = cols",
        ]
        funcs = ", ".join(
            f"{fn.name!r}: {_mangle('f', fn.name)}"
            for fn in self.checked.program.funcs
        )
        tail = [f"    return {{{funcs}}}"]
        low.source = "\n".join(head + bodies + tail) + "\n"
        low.code = compile(low.source, "<lowered program>", "exec")
        return low


@dataclass(slots=True)
class _Place:
    """A lowering-time lvalue.

    ``kind`` is ``reg`` (a Python variable named ``ref``) or ``addr``
    (an address expression ``ref``); ``mode`` says whether an ``addr``
    place is always shared (static path), always private (a
    memory-resident local) or decided at run time (``dyn``: reached
    through a pointer or an arena slot)."""

    kind: str
    ref: str
    ty: T.CType
    mode: str = "dyn"


class _Emitter:
    """Emits one C function as one Python generator function."""

    def __init__(self, prog: _Lowerer, fn: A.FuncDef, *, spawned: bool):
        self.prog = prog
        self.fn = fn
        self.spawned = spawned
        self.symtab = prog.checked.symtab
        self.memory = prog.memory_names[fn.name]
        #: a parameter holds its argument uncoerced
        self.params = {self.var(p.name) for p in fn.params}
        self.lines: list[str] = []
        self.depth = 2
        self.ntmp = 0
        #: pending counter increments of the current straight-line path
        self.w = self.pr = self.sr = 0
        #: the current path has ended in a jump
        self.dead = False
        #: enclosing loops: the For update statement (or None)
        self.loops: list[A.Stmt | None] = []

    # -- output helpers ------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"t{self.ntmp}"

    def atom(self, expr: str) -> str:
        """``expr`` as a name or literal (safe to repeat)."""
        if expr.isidentifier() or _is_literal(expr):
            return expr
        t = self.tmp()
        self.line(f"{t} = {expr}")
        return t

    def flush(self) -> None:
        if self.dead:
            self.w = self.pr = self.sr = 0
            return
        if self.w:
            self.line(f"proc.work += {self.w}")
        if self.pr:
            self.line(f"proc.private_refs += {self.pr}")
        if self.sr:
            self.line(f"proc.shared_refs += {self.sr}")
        self.w = self.pr = self.sr = 0

    def branch(self, head: str, then, orelse=None) -> None:
        """Emit ``if head:`` with arms produced by the ``then``/``orelse``
        callables.  Pending counts flow into both arms; an arm that falls
        through into a join flushes its own."""
        pending = (self.w, self.pr, self.sr)
        arms = []
        for body in (then, orelse):
            saved = self.lines
            self.lines = []
            self.depth += 1
            self.w, self.pr, self.sr = pending
            self.dead = False
            if body is not None:
                body()
            arms.append((self.lines, self.dead, (self.w, self.pr, self.sr)))
            self.depth -= 1
            self.lines = saved
        live = [a for a in arms if not a[1]]
        if len(live) == 2:
            for lines, _, counts in arms:
                if any(counts):
                    self.depth += 1
                    saved = self.lines
                    self.lines = lines
                    self.w, self.pr, self.sr = counts
                    self.dead = False
                    self.flush()
                    self.lines = saved
                    self.depth -= 1
            after = (0, 0, 0)
        elif live:
            after = live[0][2]
        else:
            after = (0, 0, 0)
        self.line(f"if {head}:")
        self._arm(arms[0][0])
        if arms[1][0]:
            self.line("else:")
            self._arm(arms[1][0])
        self.w, self.pr, self.sr = after
        self.dead = not live

    def _arm(self, lines: list[str]) -> None:
        if lines:
            self.lines += lines
        else:
            self.lines.append("    " * (self.depth + 1) + "pass")

    def fault(self, cond: str, msg: str, loc) -> None:
        self.line(f"if {cond}: raise RF({msg!r}, {self.prog.loc(loc)})")

    # -- function ------------------------------------------------------------

    def emit(self) -> list[str]:
        fn = self.fn
        params = "".join(f", {self.var(p.name)}" for p in fn.params)
        if self.spawned:
            params += ", spawned=False"
        out = [f"    def {_mangle('f', fn.name)}(proc{params}):"]
        if self.spawned:
            self.line("if spawned: yield")
        for p in fn.params:
            if self.prog.track_cursor or p.name in self.memory:
                a = f"falloc(proc, {self.prog.ftype(p.type)})"
                if p.name in self.memory:
                    self.line(f"{self.addr_var(p.name)} = {a}")
                    self.line(f"mem[{self.addr_var(p.name)}] = {self.var(p.name)}")
                else:
                    self.line(a)
        for st in fn.body.body:
            self.stmt(st)
        if not self.dead:
            self.flush()
            if fn.name == "main":
                self.line("I.exit_value = 0")
            if isinstance(fn.ret, T.VoidType):
                self.line("return None")
            else:
                self.line(f"return {_default_literal(fn.ret)}")
        # a body without statements still has to be a generator
        self.line("yield")
        return out + self.lines

    def var(self, name: str) -> str:
        return _mangle("v", name)

    def addr_var(self, name: str) -> str:
        return _mangle("p", name)

    # -- statements ----------------------------------------------------------

    def stmt(self, st: A.Stmt) -> None:
        self.line("yield")
        self.w += 1
        if isinstance(st, A.Block):
            for s in st.body:
                self.stmt(s)
        elif isinstance(st, A.VarDecl):
            self.decl(st)
        elif isinstance(st, A.Assign):
            self.assign(st)
        elif isinstance(st, A.ExprStmt):
            self.effect(st.expr)
        elif isinstance(st, A.If):
            c = self.cond(st.cond)
            self.branch(
                c,
                lambda: self.stmt(st.then),
                (lambda: self.stmt(st.orelse)) if st.orelse is not None else None,
            )
        elif isinstance(st, A.While):
            self.loop(st.cond, st.body, None)
        elif isinstance(st, A.For):
            if st.init is not None:
                self.stmt(st.init)
            self.loop(st.cond, st.body, st.update)
        elif isinstance(st, A.Return):
            value = "None"
            if st.value is not None:
                value = self.rv(st.value)[0]
            self.flush()
            if self.fn.name == "main":
                value = self.atom(value)
                self.line(f"I.exit_value = {value}")
            self.line(f"return {value}")
            self.dead = True
        elif isinstance(st, A.Break):
            self.jump("break")
        elif isinstance(st, A.Continue):
            update = self.loops[-1]
            if update is not None:
                # a C ``continue`` in a for loop still runs the update
                self.stmt(update)
            self.jump("continue")
        else:  # pragma: no cover - the parser emits no other statements
            raise RuntimeFault(f"cannot execute {type(st).__name__}", st.loc)

    def jump(self, keyword: str) -> None:
        self.flush()
        self.line(keyword)
        self.dead = True

    def loop(self, cond, body: A.Stmt, update) -> None:
        self.flush()
        self.line("while True:")
        self.depth += 1
        self.dead = False
        if cond is not None:
            c = self.cond(cond)
            self.branch(f"not {c}", lambda: self.jump("break"))
        self.loops.append(update)
        self.stmt(body)
        self.loops.pop()
        if update is not None and not self.dead:
            self.stmt(update)
        self.flush()
        self.depth -= 1
        self.dead = False

    def decl(self, st: A.VarDecl) -> None:
        memory = st.name in self.memory
        if self.prog.track_cursor or memory:
            a = f"falloc(proc, {self.prog.ftype(st.type)})"
            self.line(f"{self.addr_var(st.name)} = {a}" if memory else a)
        if st.init is None:
            if memory:
                self.line(f"mem[{self.addr_var(st.name)}] = {_default_literal(st.type)}")
            else:
                self.line(f"{self.var(st.name)} = {_default_literal(st.type)}")
            return
        if not memory and any(
            isinstance(e, A.Ident) and e.name == st.name
            for e in A.walk_exprs(st.init)
        ):
            # the initializer reads the fresh (still default) variable
            self.line(f"{self.var(st.name)} = {_default_literal(st.type)}")
        value, is_float = self.rv(st.init)
        value = self.coerce(st.type, value, is_float)
        self.pr += 1
        if memory:
            self.line(f"mem[{self.addr_var(st.name)}] = {value}")
        else:
            self.line(f"{self.var(st.name)} = {value}")

    def assign(self, st: A.Assign) -> None:
        value, is_float = self.rv(st.value)
        place = self.finalize(self.place(st.target))
        ty = place.ty
        if st.op:
            old, old_float = self.load(place)
            v = self.atom(value)
            if st.op in ("+", "-", "*"):
                value = f"({old} {st.op} {v})"
                is_float = is_float or old_float
            else:
                self.fault(f"{v} == 0", "division by zero", st.loc)
                if isinstance(ty, T.IntType):
                    value = self.int_div(old, v)
                    is_float = False
                else:
                    value = self.atom(f"{old} / {v}")
                    is_float = True
        self.store(place, self.coerce(ty, value, is_float))

    def coerce(self, ty: T.CType, value: str, is_float: bool) -> str:
        if not isinstance(ty, T.DoubleType) or is_float:
            return value
        if _is_literal(value):
            return repr(float(value)) if value.lstrip("-").isdigit() else value
        v = self.atom(value)
        return f"(float({v}) if {v}.__class__ is int else {v})"

    def effect(self, e: A.Expr) -> None:
        """Evaluate ``e`` for its effects only."""
        if isinstance(e, A.Call) and e.name not in PURE_IMPLS:
            self.w += 1
            self.call(e, discard=True)
            return
        self.rv(e)

    # -- expressions ---------------------------------------------------------

    def rv(self, e: A.Expr) -> tuple[str, bool]:
        """Lower ``e`` for its value: ``(python expression, known float)``.
        Statements for its effects are emitted first; the returned
        expression is pure over temporaries, locals and constants."""
        self.w += 1
        if isinstance(e, A.IntLit):
            return str(e.value), False
        if isinstance(e, A.FloatLit):
            if math.isfinite(e.value):
                return repr(e.value), True
            return f"float({repr(e.value)!r})", True
        if isinstance(e, (A.Ident, A.Index, A.Member)):
            return self.load(self.finalize(self.place(e)))
        if isinstance(e, A.BinOp):
            return self.binop(e)
        if isinstance(e, A.UnOp):
            if e.op == "-":
                v, f = self.rv(e.operand)
                return f"(-{v})", f
            if e.op == "!":
                v, _ = self.rv(e.operand)
                return f"(0 if {v} else 1)", False
            if e.op == "*":
                return self.load(self.finalize(self.place(e)))
            if e.op == "&":
                return self.finalize(self.place(e.operand)).ref, False
        if isinstance(e, A.Call):
            return self.call(e, discard=False)
        if isinstance(e, A.Alloc):
            count = "1"
            if e.count is not None:
                count = self.atom(f"int({self.rv(e.count)[0]})")
                self.fault(f"{count} < 0", "negative alloc_array count", e.loc)
            return self.atom(f"alloc({self.prog.alloc(e)}, {count})"), False
        raise RuntimeFault(  # pragma: no cover - the checker rejects
            f"cannot evaluate {type(e).__name__}", e.loc
        )

    def cond(self, e: A.Expr) -> str:
        """Lower ``e`` for its truth value (a Python expression)."""
        if isinstance(e, A.BinOp) and e.op in _CMP:
            self.w += 1
            a, _ = self.rv(e.left)
            b, _ = self.rv(e.right)
            return f"({a} {e.op} {b})"
        if isinstance(e, A.BinOp) and e.op in ("&&", "||"):
            self.w += 1
            return self.short_circuit(e, "True", "False")
        if isinstance(e, A.UnOp) and e.op == "!":
            self.w += 1
            return f"(not {self.cond(e.operand)})"
        return self.rv(e)[0]

    def short_circuit(self, e: A.BinOp, true: str, false: str) -> str:
        left = self.atom(self.cond(e.left))
        t = self.tmp()

        def right():
            r = self.cond(e.right)
            self.line(f"{t} = {true} if {r} else {false}")

        def skip():
            self.line(f"{t} = {false if e.op == '&&' else true}")

        if e.op == "&&":
            self.branch(left, right, skip)
        else:
            self.branch(left, skip, right)
        return t

    def binop(self, e: A.BinOp) -> tuple[str, bool]:
        op = e.op
        if op in ("&&", "||"):
            return self.short_circuit(e, "1", "0"), False
        a, af = self.rv(e.left)
        b, bf = self.rv(e.right)
        if op in _CMP:
            return f"(1 if {a} {op} {b} else 0)", False
        if op in ("+", "-", "*"):
            return f"({a} {op} {b})", af or bf
        a, b = self.atom(a), self.atom(b)
        if op == "/":
            self.fault(f"{b} == 0", "division by zero", e.loc)
            if isinstance(e.ty, T.IntType):
                return self.int_div(a, b), False
            return self.atom(f"{a} / {b}"), True
        if op == "%":
            self.fault(f"{b} == 0", "modulo by zero", e.loc)
            q = self.int_div(a, b)
            return f"({a} - {q} * {b})", False
        raise RuntimeFault(  # pragma: no cover - the checker rejects
            f"unknown operator {op!r}", e.loc
        )

    def int_div(self, a: str, b: str) -> str:
        """C division (truncating toward zero), as the evaluator did."""
        q = self.tmp()
        self.line(f"{q} = abs({a}) // abs({b})")
        self.line(f"if ({a} >= 0) != ({b} >= 0): {q} = -{q}")
        return q

    def call(self, e: A.Call, *, discard: bool) -> tuple[str, bool]:
        name = e.name
        if name in PURE_IMPLS:
            args = [self.atom(self.rv(a)[0]) for a in e.args]
            inline = _INLINE_BUILTINS.get(name)
            if inline is not None:
                return inline.format(*args), False
            if name == "sqrt":
                a = args[0]
                return self.atom(f"(m_sqrt({a}) if {a} > 0.0 else 0.0)"), True
            is_float = name in _FLOAT_BUILTINS
            return self.atom(f"B_{name}({', '.join(args)})"), is_float
        if name == "nprocs":
            return "NP", False
        if name == "print":
            args = [self.atom(self.rv(a)[0]) for a in e.args]
            parts = ", ".join(f"str({a})" for a in args)
            self.line(f'out(" ".join(({parts}{"," if len(args) == 1 else ""})))')
            return "None", False
        if name == "barrier":
            self.line("yield from barrier(proc)")
            return "None", False
        if name in ("lock", "unlock"):
            arg = e.args[0]
            if isinstance(arg, A.UnOp) and arg.op == "&":
                addr = self.finalize(self.place(arg.operand)).ref
            else:
                addr = self.atom(f"int({self.rv(arg)[0]})")
            if name == "lock":
                self.line(f"yield from lock(proc, {addr})")
            else:
                self.line(f"unlock(proc, {addr})")
            return "None", False
        if name == "create":
            pid = self.atom(f"int({self.rv(e.args[1])[0]})")
            target = e.args[0]
            assert isinstance(target, A.Ident)
            self.line(f"spawn({target.name!r}, {pid})")
            return "None", False
        if name == "wait_for_end":
            self.line("yield from join(proc)")
            return "None", False
        if name not in self.symtab.funcs:  # pragma: no cover - checker rejects
            raise RuntimeFault(f"unknown function {name!r}", e.loc)
        args = "".join(f", {self.atom(self.rv(a)[0])}" for a in e.args)
        callee = _mangle("f", name)
        if discard:
            self.line(f"yield from {callee}(proc{args})")
            return "None", False
        t = self.tmp()
        self.line(f"{t} = yield from {callee}(proc{args})")
        return t, False

    # -- places --------------------------------------------------------------

    def is_shared(self, e: A.Ident) -> bool:
        sym = self.symtab.ident_symbols.get(id(e))
        return sym is not None and sym.is_shared

    def static_root(self, e: A.Expr) -> bool:
        """Whether lvalue ``e`` is a static access path: a shared global
        followed only by array indices and ``.`` fields."""
        while True:
            if isinstance(e, A.Ident):
                return self.is_shared(e)
            if isinstance(e, A.Index) and isinstance(e.base.ty, T.ArrayType):
                e = e.base
            elif isinstance(e, A.Member) and not e.arrow:
                e = e.base
            else:
                return False

    def place(self, e: A.Expr):
        """Lower lvalue ``e``; returns a :class:`_Place`, or for a static
        access path a list of its nodes (resolved by :meth:`finalize`)."""
        if self.static_root(e):
            nodes = []
            while not isinstance(e, A.Ident):
                nodes.append(e)
                e = e.base
            return [e] + nodes[::-1]
        self.w += 1
        if isinstance(e, A.Ident):
            if e.name in self.memory:
                return _Place("addr", self.addr_var(e.name), e.ty, "private")
            return _Place("reg", self.var(e.name), e.ty)
        if isinstance(e, A.Index):
            base = self.finalize(self.place(e.base))
            idx = self.atom(self.rv(e.index)[0])
            bty = base.ty
            if isinstance(bty, T.ArrayType):
                self.bounds(idx, bty.dims[0], e.loc)
                inner = _inner(bty)
                addr = self.atom(f"{base.ref} + {idx} * {self.prog.size(inner)}")
                return _Place("addr", addr, inner, base.mode)
            ptr = self.pointer(base, e)
            target = bty.target
            addr = self.atom(f"{ptr} + {idx} * {self.prog.size(target)}")
            return _Place("addr", addr, target)
        if isinstance(e, A.Member):
            base = self.finalize(self.place(e.base))
            if e.arrow:
                struct = base.ty.target
                base = _Place("addr", self.pointer(base, e), struct)
            else:
                struct = base.ty
            return self.raw_field(base, struct.name, e.name, e.ty)
        if isinstance(e, A.UnOp) and e.op == "*":
            base = self.finalize(self.place(e.operand))
            return _Place("addr", self.pointer(base, e), base.ty.target)
        raise RuntimeFault(  # pragma: no cover - the checker rejects
            f"not an lvalue: {type(e).__name__}", e.loc
        )

    def pointer(self, base: _Place, e: A.Expr) -> str:
        """Load the pointer stored at ``base`` and null-check it."""
        ptr, _ = self.load(base)
        ptr = self.atom(ptr)
        self.fault(f"not {ptr}", "null pointer dereference", e.loc)
        return ptr

    def raw_field(self, base: _Place, sname: str, fname: str, ty) -> _Place:
        n = self.prog.field(sname, fname)
        a = self.tmp()
        self.line(f"{a} = {base.ref} + O{n}")
        self.line(f"if D{n}: {a} = ind(proc, {a}, F{n})")
        return _Place("addr", a, ty)

    def bounds(self, idx: str, dim: int, loc) -> None:
        self.line(f"if not 0 <= {idx} < {dim}: oob({idx}, {dim}, {self.prog.loc(loc)})")

    def finalize(self, p) -> _Place:
        """Resolve a static access path (see :meth:`place`) to an address;
        other places pass through.

        A path with ``.`` fields may cross a field the layout indirects.
        Usually the whole path is resolved at its end (``X`` selects the
        runtime walk).  When an index after the first field could touch
        shared memory or yield, the indirection must happen in step
        order instead: ``K`` (the first indirected field's ordinal) cuts
        the path there and the rest is followed as a raw address."""
        if isinstance(p, _Place):
            return p
        root, nodes = p[0], p[1:]
        self.w += 1 + len(nodes)
        steps = tuple(
            ("idx",) if isinstance(n, A.Index) else ("field", n.base.ty.name, n.name)
            for n in nodes
        )
        first = next((k for k, s in enumerate(steps) if s[0] == "field"), None)
        ordered = first is not None and not all(
            _neutral(n.index, self) for n in nodes[first:] if isinstance(n, A.Index)
        )
        c = self.prog.chain(root.name, steps, ordered)
        r = self.tmp() if ordered else None
        if ordered:
            self.line(f"{r} = 0")
        lead: list[str] = []
        trail: list[tuple[str, T.CType]] = []
        idxs: list[str] = []
        nfield = 0
        for k, node in enumerate(nodes):
            if isinstance(node, A.Index):
                bty = node.base.ty
                idx = self.atom(self.rv(node.index)[0])
                self.bounds(idx, bty.dims[0], node.loc)
                idxs.append(idx)
                inner = _inner(bty)
                if not nfield:
                    lead.append(idx)
                    continue
                trail.append((idx, inner))
                if ordered:
                    self.line(f"if {r}: {r} += {idx} * {self.prog.size(inner)}")
                continue
            nfield += 1
            if not ordered:
                continue
            cut = f"walk(proc, {c}, ({''.join(i + ', ' for i in idxs)}), {k + 1})"
            if nfield == 1:
                self.line(f"if K{c} == 1: {r} = {cut}")
                continue
            n = self.prog.field(node.base.ty.name, node.name)
            self.line(f"if {r}:")
            self.line(f"    {r} += O{n}")
            self.line(f"    if D{n}: {r} = ind(proc, {r}, F{n})")
            self.line(f"elif K{c} == {nfield}: {r} = {cut}")
        formula = self.static_formula(c, root.ty, lead, trail)
        ty = nodes[-1].ty if nodes else root.ty
        if first is None:
            if not lead:
                return _Place("addr", formula, ty, "shared")
            return _Place("addr", self.atom(formula), ty, "shared")
        if ordered:
            self.line(f"if not {r}: {r} = {formula}")
            return _Place("addr", r, ty, "dyn")
        walk = f"walk(proc, {c}, ({''.join(i + ', ' for i in idxs)}), {len(steps)})"
        a = self.atom(f"{formula} if not X{c} else {walk}")
        return _Place("addr", a, ty, "dyn")

    def static_formula(self, c: int, ty, lead: list[str], trail) -> str:
        if lead:
            dims = ty.dims
            flat = lead[0]
            for idx, d in zip(lead[1:], dims[1:]):
                flat = f"({flat}) * {d} + {idx}"
            expr = f"T{c}[{flat}]"
        else:
            expr = f"T{c}"
        for j, (idx, inner) in enumerate(trail):
            stride = str(inner.size) if inner.is_scalar else f"S{c}_{j}"
            expr += f" + {idx} * {stride}"
        return expr

    def load(self, p: _Place) -> tuple[str, bool]:
        ty = p.ty
        is_float = isinstance(ty, T.DoubleType)
        if p.kind == "reg":
            self.pr += 1
            return p.ref, is_float and p.ref not in self.params
        self.ref(p, False)
        t = self.tmp()
        self.line(f"{t} = mg({p.ref}, {_default_literal(ty)})")
        return t, is_float and p.mode != "private"

    def store(self, p: _Place, value: str) -> None:
        if p.kind == "reg":
            self.pr += 1
            self.line(f"{p.ref} = {value}")
            return
        self.ref(p, True)
        self.line(f"mem[{p.ref}] = {value}")

    def ref(self, p: _Place, is_write: bool) -> None:
        size = scalar_size(p.ty)
        if p.mode == "private":
            self.pr += 1
            return
        trace = f"tp(proc.cpu); ta({p.ref}); ts({size}); tw({int(is_write)})"
        if p.mode == "shared":
            self.sr += 1
            self.line(trace)
            return
        self.line(f"if {p.ref} < PB:")
        self.line("    proc.shared_refs += 1")
        self.line(f"    {trace}")
        self.line("else:")
        self.line("    proc.private_refs += 1")


def _is_literal(expr: str) -> bool:
    try:
        float(expr)
    except ValueError:
        return expr in ("None", "True", "False")
    return True


def _neutral(e: A.Expr, em: _Emitter) -> bool:
    """Whether evaluating ``e`` can neither touch shared memory nor
    reach another process (so it commutes with an indirection's
    pointer-cell traffic)."""
    for n in A.walk_exprs(e):
        if isinstance(n, (A.IntLit, A.FloatLit, A.BinOp)):
            continue
        if isinstance(n, A.UnOp) and n.op in ("-", "!"):
            continue
        if isinstance(n, A.Ident) and not em.is_shared(n):
            continue
        if isinstance(n, A.Call) and (n.name in PURE_IMPLS or n.name == "nprocs"):
            continue
        return False
    return True
