"""Spec-driven program generation and mutation.

The generator builds syscall programs from a specification suite the same way
Syzkaller does: pick a resource-producing call (``openat``/``socket``), then a
handful of calls that consume the produced resource, and concretise every
argument according to its syzlang type.  The quality of the specification
directly determines the quality of the programs — wrong device paths never
open, wrong command values never dispatch, untyped buffers never satisfy
field-level guards — which is exactly the mechanism behind the paper's
coverage and bug-finding results.

**Value plans.**  Argument concretisation is precompiled: a syscall
parameter's type expression collapses into a value plan
``plan(produced, getrandbits)``, and a struct's members into
``(field name, plan)`` pairs, with constant values, string defaults, struct
definitions and byte sizes resolved when the plan is built.  Plans hold no
random state: they draw through the ``getrandbits`` they are handed, so one
plan serves every campaign, thread and suite of the process.

**One plan cache per process.**  Plans are cached weakly keyed on the
:class:`~repro.syzlang.ConstantTable`; the cache is replaced when the
table's ``version`` (its edit counter) moves, so a constant defined after
one campaign resolves in the next.  Inside the cache a plan is keyed by the
value of its type expression.  A named reference also keys on whether the
name is a resource, on its ``StructDef``/``UnionDef`` value and on its byte
size in the suite, so two suites that define one name differently each get
their own layout.  A generator looks up a syscall's entry
``(name, full_name, produced_resource, plan)`` the first time it emits that
syscall; campaigns touch a fraction of their suite.

**Draw contract.**  Programs and rng states are bit-identical to the
``random.Random`` calls of the interpreted generator kept as the oracle in
:mod:`repro.fuzzer.reference`.  Every draw is CPython's
``_randbelow_with_getrandbits`` (:func:`below`, inlined in the value
plans): ``k = n.bit_length()``, then ``getrandbits(k)`` again while the
result is ``>= n``.  ``choice(seq)`` is ``seq[below(len(seq))]``,
``randint(a, b)`` is ``a + below(b - a + 1)`` and ``randrange(a, b)`` is
``a + below(b - a)``.  Draws keep the oracle's order, including Python's
rule that the right-hand side of an assignment is evaluated before its
target: ``rng.choice(byte_args).length = rng.choice(pool)`` draws the length
first, then picks the buffer.

**Copy-on-write mutation.**  :meth:`ProgramGenerator.mutate` never changes
its input.  It copies the call list and replaces only the call and the
argument it mutates, sharing every other call with the input — so calls of
a program that may sit in a corpus must never be changed in place.
"""

from __future__ import annotations

import random
import threading
import weakref

from ..syzlang import (
    ArrayType,
    BufferType,
    ConstType,
    ConstantTable,
    FlagsType,
    IntType,
    LenType,
    NamedTypeRef,
    PtrType,
    ResourceRef,
    SpecSuite,
    StringType,
    TypeExpr,
)
from .program import BytesValue, Call, Program, ResourceValue, StructValue

#: Values mutation favours: boundary and "interestingly large" numbers that
#: exercise allocation-size and index guards (and the injected bug triggers).
INTERESTING_VALUES = (
    0, 1, 2, 7, 64, 255, 4096, 0xFFFF, 0x10000, 0x100000,
    0x10000000, 0x20000000, 0x40000000, 0x7FFFFFFF, 0x7FFFFF00, 0xFFFFFFFF,
)

#: Choice pools of the plans and of mutation.
_FLAG_CHOICES = (0, 1, 2, 4)
_STRUCT_FLAG_CHOICES = (0, 1, 2)
_FALLBACK_FIELD_CHOICES = (0, 1, 8)
_BUFFER_LENGTHS = (0, 8, 64, 4096)


def below(n: int, getrandbits) -> int:
    """A uniform draw from ``range(n)``, ``n > 0``.

    CPython's ``Random._randbelow_with_getrandbits``, bit for bit: the same
    ``getrandbits`` calls, so the rng ends in the same state.  The value
    plans inline this loop.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# ------------------------------------------------------------ value plans
def _choice_plan(pool: tuple):
    """``plan`` drawing ``rng.choice(pool)``."""
    n = len(pool)
    k = n.bit_length()

    def plan(produced, getrandbits):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return pool[r]
    return plan


def _randint_plan(low: int, high: int):
    """``plan`` drawing ``rng.randint(low, high)``."""
    n = high - low + 1
    k = n.bit_length()

    def plan(produced, getrandbits):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return low + r
    return plan


def _constant_plan(value):
    return lambda produced, getrandbits: value


_INTERESTING_PLAN = _choice_plan(INTERESTING_VALUES)
_FLAG_PLAN = _choice_plan(_FLAG_CHOICES)
_STRUCT_FLAG_PLAN = _choice_plan(_STRUCT_FLAG_CHOICES)
_FALLBACK_FIELD_PLAN = _choice_plan(_FALLBACK_FIELD_CHOICES)
_LEN_PLAN = _randint_plan(1, 8)
_BYTES_LENGTH_PLAN = _randint_plan(0, 64)
_ZERO_PLAN = _constant_plan(0)
_ONE_PLAN = _constant_plan(1)


def _bytes_plan(produced, getrandbits):
    return BytesValue(_BYTES_LENGTH_PLAN(produced, getrandbits))


def _compile_value(expr: TypeExpr, constants: ConstantTable):
    """The plan of a type expression without a named reference."""
    if isinstance(expr, ConstType):
        try:
            return _constant_plan(constants.resolve(expr.value))
        except Exception:
            return _ZERO_PLAN
    if isinstance(expr, IntType):
        if expr.min_value is not None and expr.max_value is not None:
            return _randint_plan(expr.min_value, expr.max_value)
        return _INTERESTING_PLAN
    if isinstance(expr, FlagsType):
        return _FLAG_PLAN
    if isinstance(expr, LenType):
        return _LEN_PLAN
    if isinstance(expr, StringType):
        return _constant_plan(expr.values[0] if expr.values else "/dev/null")
    if isinstance(expr, (ArrayType, BufferType)):
        return _bytes_plan
    return _ZERO_PLAN


def _compile_named(key: tuple, value_plan):
    """The plan of a named reference: a produced resource, else its payload."""
    name, is_resource, definition, byte_size = key
    if is_resource:
        # ``None`` is an unsatisfied dependency: no producer ran earlier.
        return lambda produced, getrandbits: produced.get(name)
    # A named type the suite does not define is an untyped payload.
    payload = _bytes_plan if definition is None else _compile_struct(
        name, definition, byte_size, value_plan
    )

    def plan(produced, getrandbits):
        value = produced.get(name)
        return payload(produced, getrandbits) if value is None else value
    return plan


def _compile_struct(name: str, definition, byte_size: int, value_plan):
    """The ``StructValue`` plan of one struct/union layout.

    Members compile to ``(field name, plan)`` pairs, written in order.
    """
    members = []
    for member in definition.fields:
        expr = member.type
        if isinstance(expr, LenType):
            # Mark that this length was generated consistently with its
            # target array, so the executor can honour len-match guards.
            members += [(member.name, _LEN_PLAN), (f"__lenok_{member.name}", _ONE_PLAN)]
        elif isinstance(expr, (IntType, ConstType)):
            members.append((member.name, value_plan(expr)))
        elif isinstance(expr, FlagsType):
            members.append((member.name, _STRUCT_FLAG_PLAN))
        else:
            members.append((member.name, _FALLBACK_FIELD_PLAN))
    members = tuple(members)

    def plan(produced, getrandbits):
        fields: dict[str, int] = {}
        for field_name, member_plan in members:
            fields[field_name] = member_plan(produced, getrandbits)
        return StructValue(name, fields, byte_size)
    return plan


def _call_plan(params: tuple):
    """``plan(produced, getrandbits) -> args`` for one syscall's parameters."""
    def plan(produced, getrandbits):
        args = {}
        for name, value_plan in params:
            args[name] = value_plan(produced, getrandbits)
        return args
    return plan


#: Per live constant table: ``(version, value plans, named plans, entries)``.
#: Threads may race to compile one key: ``setdefault`` keeps the first plan,
#: and plans compiled from equal keys are equivalent.
_PLAN_CACHES: "weakref.WeakKeyDictionary[ConstantTable, tuple]" = weakref.WeakKeyDictionary()
_PLAN_CACHES_LOCK = threading.Lock()


def _plan_cache(constants: ConstantTable) -> tuple:
    with _PLAN_CACHES_LOCK:
        cache = _PLAN_CACHES.get(constants)
        if cache is None or cache[0] != constants.version:
            cache = (constants.version, {}, {}, {})
            _PLAN_CACHES[constants] = cache
    return cache


class ProgramGenerator:
    """Generates and mutates programs from one specification suite.

    The suite must not change while a generator over it runs.
    """

    def __init__(self, suite: SpecSuite, constants: ConstantTable, *, seed: int = 0):
        self.suite = suite
        self.constants = constants
        self.rng = random.Random(seed)
        _, self._value_plans, self._named_plans, self._shared_entries = _plan_cache(constants)
        self._syscalls = tuple(suite)
        self._entries: list[tuple | None] = [None] * len(self._syscalls)
        self._resources = suite.resources
        self._size_resolver = None
        self._plans_by_name: dict = {}
        # Producers and consumers hold positions into ``_syscalls``.
        self._producers: list[int] = []
        self._consumers: dict[str, list[int]] = {}
        for position, syscall in enumerate(self._syscalls):
            if syscall.returns is not None and syscall.name in ("openat", "socket", "open"):
                self._producers.append(position)
            for resource in syscall.consumed_resources():
                self._consumers.setdefault(resource, []).append(position)

    @property
    def has_programs(self) -> bool:
        return bool(self._producers)

    # ---------------------------------------------------------- value plans
    def _entry(self, position: int) -> tuple:
        """Look up (once) the entry of the syscall at ``position``.

        Entries are shared across generators too, so a campaign allocates
        few objects that outlive a program; each such object brings the
        next full garbage collection closer.
        """
        syscall = self._syscalls[position]
        params = tuple((param.name, self._plan(param.type)) for param in syscall.params)
        key = (syscall.name, syscall.full_name, syscall.produced_resource(), params)
        entry = self._shared_entries.get(key)
        if entry is None:
            entry = self._shared_entries.setdefault(key, key[:3] + (_call_plan(params),))
        self._entries[position] = entry
        return entry

    def _plan(self, expr: TypeExpr):
        while isinstance(expr, PtrType):
            expr = expr.elem
        if isinstance(expr, (ResourceRef, NamedTypeRef)):
            return self._named_plan(expr.name)
        plan = self._value_plans.get(expr)
        if plan is None:
            plan = self._value_plans.setdefault(expr, _compile_value(expr, self.constants))
        return plan

    def _named_plan(self, name: str):
        plan = self._plans_by_name.get(name)
        if plan is not None:
            return plan
        if name in self._resources:
            key = (name, True, None, 0)
        else:
            definition = self.suite.get_type_def(name)
            byte_size = 0
            if definition is not None:
                if self._size_resolver is None:
                    self._size_resolver = self.suite.size_resolver()
                byte_size = definition.byte_size(self._size_resolver)
            key = (name, False, definition, byte_size)
        plan = self._named_plans.get(key)
        if plan is None:
            plan = self._named_plans.setdefault(key, _compile_named(key, self._plan))
        self._plans_by_name[name] = plan
        return plan

    # ------------------------------------------------------------- generate
    def generate(self, *, max_calls: int = 10) -> Program:
        """Generate a fresh program around one randomly chosen producer."""
        program = Program()
        producers = self._producers
        if not producers:
            return program
        getrandbits = self.rng.getrandbits
        consumers = self._consumers
        entries = self._entries
        calls = program.calls

        position = producers[below(len(producers), getrandbits)]
        name, full_name, resource, plan = entries[position] or self._entry(position)
        # Resource name -> the (shared, never modified) reference to its producer.
        produced: dict[str, ResourceValue] = {}
        calls.append(Call(name, full_name, plan(produced, getrandbits)))
        if resource is not None:
            produced[resource] = ResourceValue(0)

        if max_calls < 2:
            raise ValueError(f"max_calls must be at least 2, got {max_calls}")
        for _ in range(2 + below(max_calls - 1, getrandbits)):
            available = [res for res in produced if res in consumers]
            if not available:
                break
            pool = consumers[available[below(len(available), getrandbits)]]
            position = pool[below(len(pool), getrandbits)]
            name, full_name, resource, plan = entries[position] or self._entry(position)
            calls.append(Call(name, full_name, plan(produced, getrandbits)))
            if resource is not None:
                produced[resource] = ResourceValue(len(calls) - 1)
        return program

    # --------------------------------------------------------------- mutate
    def mutate(self, program: Program) -> Program:
        """Return a mutated copy of ``program``, which is left unchanged."""
        calls = list(program.calls)
        mutated = Program(calls)
        if not calls:
            return mutated
        choice = self.rng.random()
        if choice < 0.7:
            self._mutate_argument(calls)
        elif choice < 0.85 and len(calls) > 1:
            # Duplicate a consumer call (repetition often matters for races/leaks).
            calls.append(calls[1 + below(len(calls) - 1, self.rng.getrandbits)])
        else:
            extension = self.generate(max_calls=3)
            if extension.calls and extension.calls[0].spec_name == calls[0].spec_name:
                calls.extend(extension.calls[1:])
        return mutated

    def _mutate_argument(self, calls: list[Call]) -> None:
        """Replace one argument of one call in ``calls`` with a mutated copy."""
        getrandbits = self.rng.getrandbits
        position = below(len(calls), getrandbits)
        call = calls[position]
        args = call.args
        struct_args = [name for name, value in args.items() if isinstance(value, StructValue)]
        if struct_args:
            arg_name = struct_args[below(len(struct_args), getrandbits)]
            target = args[arg_name]
            names = [name for name in target.fields if not name.startswith("__")]
            if names:
                field_name = names[below(len(names), getrandbits)]
                fields = dict(target.fields)
                fields[field_name] = INTERESTING_VALUES[below(len(INTERESTING_VALUES), getrandbits)]
                value = StructValue(target.struct_name, fields, target.byte_size)
                calls[position] = Call(call.syscall, call.spec_name, {**args, arg_name: value})
                return
        byte_args = [name for name, value in args.items() if isinstance(value, BytesValue)]
        if byte_args:
            # The oracle's ``choice(byte_args).length = choice(lengths)``
            # evaluates its right-hand side first.
            length = _BUFFER_LENGTHS[below(len(_BUFFER_LENGTHS), getrandbits)]
            arg_name = byte_args[below(len(byte_args), getrandbits)]
            calls[position] = Call(
                call.syscall, call.spec_name, {**args, arg_name: BytesValue(length)}
            )


__all__ = ["ProgramGenerator", "INTERESTING_VALUES", "below"]
