"""Memory layout: mapping logical shared data to physical addresses.

The unoptimized layout is what a 1990s C compiler produces: globals
allocated contiguously in declaration order with natural alignment
(which is precisely what makes unrelated busy scalars share a cache
block), row-major arrays, C struct layout, and a bump allocator for
``alloc()``.

A :class:`~repro.transform.plan.TransformPlan` changes the mapping:

* **group & transpose** members move into a per-processor region: all
  elements owned by process *p* (from every member vector) are laid
  contiguously in *p*'s segment, each segment padded to a cache-block
  multiple (Figure 2a);
* **pad & align** gives the object — or each of its elements — its own
  block-aligned, block-multiple allocation;
* **lock padding** does the same for ``lock_t`` objects, lock arrays,
  and ``lock_t`` struct fields (the field is placed on its own block
  inside the struct);
* **indirection** re-types the record field to a pointer and reserves
  per-process arenas the runtime installs slots in (Figure 2b).

Address-space map (sparse; nothing is actually this big)::

    0x0001_0000  globals (natural or padded)
    0x0100_0000  group & transpose region
    0x0400_0000  heap (alloc/alloc_array)
    0x0800_0000  per-process arenas (indirection), 4 MiB apart
    0x0F00_0000  synchronization objects (barrier word)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransformError
from repro.lang import ctypes as T
from repro.lang.checker import CheckedProgram
from repro.rsd.ops import owner_of
from repro.transform.plan import TransformPlan

GLOBALS_BASE = 0x0001_0000
GROUP_BASE = 0x0100_0000
HEAP_BASE = 0x0400_0000
ARENA_BASE = 0x0800_0000
ARENA_STRIDE = 0x0040_0000
SYNC_BASE = 0x0F00_0000

#: Address of the barrier counter word (its own block in every layout).
BARRIER_ADDR = SYNC_BASE


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


def _verify_break() -> str:
    """Value of the test-only layout-sabotage flag (see _build_globals)."""
    import os

    return os.environ.get("REPRO_VERIFY_BREAK", "").strip()


#: A concrete access step: ("idx", i) or ("field", name).
Step = tuple[str, object]


@dataclass(slots=True)
class GlobalInfo:
    name: str
    type: T.CType
    base: int
    size: int
    #: element stride override for per-element padded arrays
    elem_stride: Optional[int] = None


class DataLayout:
    """Physical layout of one program under one transform plan."""

    def __init__(
        self,
        checked: CheckedProgram,
        plan: Optional[TransformPlan] = None,
        *,
        block_size: int = 128,
        nprocs: int = 1,
    ):
        self.checked = checked
        self.plan = plan or TransformPlan(nprocs=nprocs)
        self.block_size = block_size
        self.nprocs = max(nprocs, self.plan.nprocs, 1)
        #: adjusted struct layouts (indirection / embedded lock padding)
        self.structs: dict[str, T.StructType] = {}
        #: (struct, field) pairs moved to arenas
        self.indirected: frozenset[tuple[str, str]] = frozenset(
            (i.struct, i.field) for i in self.plan.indirections
        )
        self.globals: dict[str, GlobalInfo] = {}
        #: (base, path) -> {flat_index: addr} for group members
        self._group_addr: dict[tuple[str, tuple[str, ...]], dict[int, int]] = {}
        self._grouped_paths: dict[str, set[tuple[str, ...]]] = {}
        #: path shape -> place_table() result
        self._tables: dict[tuple, tuple] = {}
        self.group_region_size = 0
        self._build_structs()
        self._build_globals()
        self._build_group_region()

    # -- struct adjustment -------------------------------------------------------

    def _build_structs(self) -> None:
        lock_fields = {
            lp.struct_field for lp in self.plan.lock_pads if lp.struct_field
        }
        record_pads = set(self.plan.record_pads)
        for name, orig in self.checked.symtab.structs.items():
            assert isinstance(orig, T.StructType)
            members: list[tuple[str, T.CType]] = []
            for f in orig.fields:
                fty = f.type
                if (name, f.name) in self.indirected:
                    fty = T.PointerType(fty)
                members.append((f.name, fty))
            st = T.layout_struct(name, members)
            if any(sf[0] == name for sf in lock_fields):
                st = self._pad_lock_fields(
                    name, members, {sf[1] for sf in lock_fields if sf[0] == name}
                )
            if name in record_pads:
                # TLH94-style record padding: every instance occupies a
                # whole number of cache blocks
                st = T.StructType(
                    name=st.name,
                    fields=st.fields,
                    size=_round_up(st.size, self.block_size),
                    align=max(st.align, self.block_size),
                )
            self.structs[name] = st

    def _pad_lock_fields(
        self, name: str, members: list[tuple[str, T.CType]], lock_names: set[str]
    ) -> T.StructType:
        """Lay out a struct giving each padded lock field its own
        block-aligned, block-sized slot."""
        bs = self.block_size
        offset = 0
        fields: list[T.StructField] = []
        align = bs
        for fname, fty in members:
            if fname in lock_names:
                offset = _round_up(offset, bs)
                fields.append(T.StructField(fname, fty, offset))
                offset += bs
            else:
                offset = _round_up(offset, fty.align)
                fields.append(T.StructField(fname, fty, offset))
                offset += fty.size
        size = _round_up(max(offset, 1), align)
        return T.StructType(name=name, fields=tuple(fields), size=size, align=align)

    # -- sizes with overrides -------------------------------------------------------

    def struct_type(self, name: str) -> T.StructType:
        return self.structs[name]

    def sizeof(self, ty: T.CType) -> int:
        if isinstance(ty, T.StructType):
            return self.structs[ty.name].size
        if isinstance(ty, T.ArrayType):
            return ty.nelems * self.sizeof(ty.elem)
        return ty.size

    def alignof(self, ty: T.CType) -> int:
        if isinstance(ty, T.StructType):
            return self.structs[ty.name].align
        if isinstance(ty, T.ArrayType):
            return self.alignof(ty.elem)
        return ty.align

    def field_of(self, struct_name: str, field_name: str) -> T.StructField:
        fld = self.structs[struct_name].field(field_name)
        if fld is None:  # pragma: no cover - checker guarantees
            raise TransformError(f"struct {struct_name} has no field {field_name}")
        return fld

    # -- global placement --------------------------------------------------------------

    def _pad_for(self, name: str):
        for p in self.plan.pads:
            if p.base == name:
                return p
        return None

    def _lock_pad_for(self, name: str):
        for lp in self.plan.lock_pads:
            if lp.base == name:
                return lp
        return None

    def _build_globals(self) -> None:
        bs = self.block_size
        # Test-only fault injection: REPRO_VERIFY_BREAK=pad_align
        # deliberately under-sizes every padded allocation so the next
        # global overlaps its tail.  The differential-validation oracle
        # (repro.verify) must catch the resulting corruption; nothing
        # else may ever set this.
        broken_pad = _verify_break() == "pad_align"
        cursor = GLOBALS_BASE
        for g in self.checked.program.globals:
            ty = g.type
            pad = self._pad_for(g.name)
            lockpad = self._lock_pad_for(g.name)
            elem_stride: Optional[int] = None
            if pad is not None or lockpad is not None:
                cursor = _round_up(cursor, bs)
                if isinstance(ty, T.ArrayType) and (
                    lockpad is not None or (pad is not None and pad.per_element)
                ):
                    elem_stride = _round_up(self.sizeof(ty.elem), bs)
                    size = ty.nelems * elem_stride
                else:
                    size = _round_up(self.sizeof(ty), bs)
                if broken_pad:
                    size = max(size - bs, 4)
            else:
                align = self.alignof(ty)
                cursor = _round_up(cursor, align)
                size = self.sizeof(ty)
            self.globals[g.name] = GlobalInfo(g.name, ty, cursor, size, elem_stride)
            cursor = cursor + size
        self.globals_end = cursor

    # -- group & transpose region ---------------------------------------------------------

    def _build_group_region(self) -> None:
        members = self.plan.group
        if not members:
            return
        bs = self.block_size
        per_owner: dict[int, list[tuple[object, int, int]]] = {
            p: [] for p in range(self.nprocs)
        }
        leftover: list[tuple[object, int, int]] = []
        member_keys: list[tuple[str, tuple[str, ...]]] = []
        for m in members:
            key = (m.base, m.path)
            member_keys.append(key)
            self._grouped_paths.setdefault(m.base, set()).add(m.path)
            ginfo = self.globals.get(m.base)
            if ginfo is None:
                raise TransformError(f"group member {m.base!r} is not a global")
            esize = self._member_elem_size(m.base, m.path)
            if isinstance(ginfo.type, T.ArrayType):
                dims = ginfo.type.dims
                for flat in range(ginfo.type.nelems):
                    coords = _unflatten(flat, dims)
                    owner: Optional[int]
                    if m.partition is not None:
                        owner = owner_of(m.partition, coords, self.nprocs)
                    else:
                        owner = m.owner
                    entry = (key, flat, esize)
                    if owner is None:
                        leftover.append(entry)
                    else:
                        per_owner[owner].append(entry)
            else:
                owner = m.owner if m.owner is not None else 0
                per_owner[owner].append((key, 0, esize))
        cursor = GROUP_BASE
        for p in range(self.nprocs):
            for key, flat, esize in per_owner[p]:
                cursor = _round_up(cursor, min(esize, 8) or 1)
                self._group_addr.setdefault(key, {})[flat] = cursor
                cursor += esize
            cursor = _round_up(cursor, bs)
        for key, flat, esize in leftover:
            cursor = _round_up(cursor, min(esize, 8) or 1)
            self._group_addr.setdefault(key, {})[flat] = cursor
            cursor += esize
        self.group_region_size = cursor - GROUP_BASE

    def _member_elem_size(self, base: str, path: tuple[str, ...]) -> int:
        ty = self.globals[base].type
        if isinstance(ty, T.ArrayType):
            ty = ty.elem
        for comp in path:
            if not isinstance(ty, T.StructType):  # pragma: no cover - plan bug
                raise TransformError(f"bad group member path {base}.{path}")
            ty = self.field_of(ty.name, comp).type
        return self.sizeof(ty)

    # -- address resolution ------------------------------------------------------------------

    def is_grouped(self, base: str, path: tuple[str, ...]) -> bool:
        return (base, path) in self._group_addr

    def is_indirected(self, struct_name: str, field_name: str) -> bool:
        return (struct_name, field_name) in self.indirected

    #: size of each per-field sub-region within a process arena.  The
    #: odd block-sized stagger keeps regions from aliasing to the same
    #: cache sets (a real allocator packs them contiguously; sparse
    #: power-of-two strides would create artificial conflict misses).
    ARENA_SUBREGION = 0x0002_0000 + 0x80

    def arena_base(self, pid: int) -> int:
        # pid may be -1 (main); staggered to avoid set aliasing
        return ARENA_BASE + (pid + 1) * (ARENA_STRIDE + 0x180)

    def arena_region(self, pid: int, struct_name: str, field_name: str) -> int:
        """Base of the arena sub-region for one indirected field: each
        field gets its own contiguous area per process (Figure 2b), so a
        consumer reading one field is not invalidated by the owner
        writing another."""
        ordered = sorted(self.indirected)
        idx = ordered.index((struct_name, field_name))
        return self.arena_base(pid) + idx * self.ARENA_SUBREGION

    def global_info(self, name: str) -> GlobalInfo:
        return self.globals[name]

    def materialize(self, base: str, steps: list[Step]) -> tuple[int, T.CType]:
        """Compute the address and type reached from global ``base``
        through concrete access ``steps``.

        Pointer hops never appear here — the interpreter follows raw
        pointer values itself; this resolves purely static paths
        (which is where group/pad/lock layouts live).  The placement
        itself is :meth:`place_table`'s.
        """
        table, strides, ty = self.place_table(base, steps)
        gty = self.globals[base].type
        k = 0
        flat = 0
        while k < len(steps) and steps[k][0] == "idx":
            flat = flat * gty.dims[k] + int(steps[k][1])  # type: ignore[union-attr]
            k += 1
        addr = table[flat] if k else table
        trailing = [int(v) for kind, v in steps[k:] if kind == "idx"]  # type: ignore[arg-type]
        for idx, stride in zip(trailing, strides):
            addr += idx * stride
        return addr, ty

    def place_table(self, base: str, steps) -> tuple[object, list[int], T.CType]:
        """The address plan of a static access path — the one place the
        group, pad and lock placements are resolved.

        Only the shape of ``steps`` matters: :meth:`materialize` steps
        with the index values ignored.  Returns ``(table, strides, ty)``
        such that the address at index values ``i_0, i_1, ...`` is
        ``table[flat] + Σ_j t_j * strides[j]``, where ``flat`` is the
        row-major position of the leading indices (those into the base
        array) among the base array's leading dimensions and ``t_j`` are
        the trailing indices (into arrays inside structs); without
        leading indices ``table`` is the address itself.  ``ty`` is the
        type reached.  Plans are cached per path shape.
        """
        shape = (base,) + tuple(s[0] if s[0] == "idx" else s[1] for s in steps)
        plan = self._tables.get(shape)
        if plan is None:
            plan = self._tables[shape] = self._place_table(base, steps)
        return plan

    def _place_table(self, base: str, steps) -> tuple[object, list[int], T.CType]:
        ginfo = self.globals[base]
        ty: T.CType = ginfo.type
        k = 0
        while k < len(steps) and steps[k][0] == "idx":
            k += 1
        fields: list[str] = []
        while k + len(fields) < len(steps) and steps[k + len(fields)][0] == "field":
            fields.append(str(steps[k + len(fields)][1]))
        dims = ty.dims if isinstance(ty, T.ArrayType) else ()
        count = 1
        for d in dims[:k]:
            count *= d
        entries = None
        if base in self._grouped_paths and k == len(dims):
            # group member match: longest matching field-path prefix
            for plen in range(len(fields), -1, -1):
                path = tuple(fields[:plen])
                amap = self._group_addr.get((base, path))
                if amap is not None:
                    entries = [amap[flat] for flat in range(count)]
                    sub_ty = self._member_type(base, path)
                    rest = steps[k + plen:]
                    break
        if entries is None:
            # padded / natural placement
            start, step = ginfo.base, 0
            if k:
                span = 1
                for d in dims[k:]:
                    span *= d
                step = span * (ginfo.elem_stride or self.sizeof(ty.elem))
            sub_ty = _elem_after(ty, k)
            rest = steps[k:]
        offset = 0
        strides: list[int] = []
        for s in rest:
            if s[0] == "idx":
                if not isinstance(sub_ty, T.ArrayType):  # pragma: no cover
                    raise TransformError(f"cannot index type {sub_ty}")
                sub_ty = (
                    T.ArrayType(sub_ty.elem, sub_ty.dims[1:])
                    if len(sub_ty.dims) > 1
                    else sub_ty.elem
                )
                strides.append(self.sizeof(sub_ty))
            else:
                assert isinstance(sub_ty, T.StructType)
                fld = self.field_of(sub_ty.name, str(s[1]))
                offset += fld.offset
                sub_ty = fld.type
        if entries is not None:
            if not k:
                return entries[0] + offset, strides, sub_ty
            return tuple(a + offset for a in entries), strides, sub_ty
        start += offset
        if not k:
            return start, strides, sub_ty
        return range(start, start + count * step, step), strides, sub_ty

    def _member_type(self, base: str, path: tuple[str, ...]) -> T.CType:
        ty = self.globals[base].type
        if isinstance(ty, T.ArrayType):
            ty = ty.elem
        for comp in path:
            assert isinstance(ty, T.StructType)
            ty = self.field_of(ty.name, comp).type
        return ty


def _elem_after(ty: T.CType, nidx: int) -> T.CType:
    if isinstance(ty, T.ArrayType):
        if nidx >= len(ty.dims):
            return ty.elem
        if nidx == 0:
            return ty
        return T.ArrayType(ty.elem, ty.dims[nidx:])
    return ty


def _unflatten(flat: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    coords = []
    for d in reversed(dims):
        coords.append(flat % d)
        flat //= d
    return tuple(reversed(coords))
