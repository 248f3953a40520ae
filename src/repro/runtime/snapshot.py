"""Interpreter snapshots: an explicit, type-dispatched clone of run state.

The systematic explorer resumes each run from the state at a branch point
instead of re-executing its prefix from ``main``. A snapshot is a private
copy of everything an execution can still change:

* copied — goroutines, frames, envs, offers, resume actions, every
  :mod:`repro.runtime.values` type, the clock and the output (the run
  snapshot in :mod:`repro.runtime.scheduler` adds this thread's runtime-id
  counters, so a resumed run mints the ids a from-scratch run would);
* shared — the immutable IR (program, functions, blocks, operands,
  ``FuncRef``/``MethodRef`` values), strings and numbers, and the
  collector.

One identity memo per clone keeps aliasing intact: two closures that
captured one env still share one env copy, an offer points at the very
channel copy the env holds, and a goroutine appears once however many
tables reach it. ``copy.deepcopy`` would do the same walk far slower.

A value of a type this module does not know raises ``TypeError`` instead
of being shared: sharing a mutable value would let a resumed run write
into its siblings' state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional

from repro.runtime.interp import Frame, Goroutine, Interpreter, Offer
from repro.runtime.values import (
    CancelFunc,
    Channel,
    Closure,
    CondVal,
    ContextVal,
    Env,
    MutexVal,
    SliceVal,
    StructVal,
    TestingT,
    WaitGroupVal,
)
from repro.ssa import ir

Memo = Dict[int, Any]

#: values that are never mutated: shared between a state and its copies
_SHARED = frozenset({int, float, bool, str, type(None), ir.FuncRef, ir.MethodRef})


def _value(value: Any, memo: Memo) -> Any:
    cls = type(value)
    if cls in _SHARED:
        return value
    copy = memo.get(id(value))
    if copy is not None:
        return copy
    clone = _CLONERS.get(cls)
    if clone is None:
        raise TypeError(f"cannot snapshot a {cls.__name__} value")
    return clone(value, memo)


def _values(values, memo: Memo) -> list:
    return [v if type(v) in _SHARED else _value(v, memo) for v in values]


def _tuple(value: tuple, memo: Memo) -> tuple:
    return tuple(_values(value, memo))


def _env(env: Env, memo: Memo) -> Env:
    copy = Env.__new__(Env)
    memo[id(env)] = copy
    copy.parent = None if env.parent is None else _value(env.parent, memo)
    copy.shared = env.shared
    copy.shared_serial = env.shared_serial
    copy.vars = {
        name: v if type(v) in _SHARED else _value(v, memo) for name, v in env.vars.items()
    }
    return copy


def _channel(chan: Channel, memo: Memo) -> Channel:
    copy = Channel.__new__(Channel)
    memo[id(chan)] = copy
    copy.id = chan.id
    copy.capacity = chan.capacity
    copy.elem_type = chan.elem_type
    copy.create_line = chan.create_line
    copy.buffer = deque(_values(chan.buffer, memo))
    copy.closed = chan.closed
    return copy


def _mutex(mutex: MutexVal, memo: Memo) -> MutexVal:
    copy = MutexVal.__new__(MutexVal)
    memo[id(mutex)] = copy
    copy.id = mutex.id
    copy.rw = mutex.rw
    copy.create_line = mutex.create_line
    copy.locked_by = mutex.locked_by
    copy.readers = mutex.readers
    return copy


def _waitgroup(wg: WaitGroupVal, memo: Memo) -> WaitGroupVal:
    copy = WaitGroupVal.__new__(WaitGroupVal)
    memo[id(wg)] = copy
    copy.id = wg.id
    copy.create_line = wg.create_line
    copy.count = wg.count
    return copy


def _cond(cond: CondVal, memo: Memo) -> CondVal:
    copy = CondVal.__new__(CondVal)
    memo[id(cond)] = copy
    copy.id = cond.id
    copy.create_line = cond.create_line
    return copy


def _context(ctx: ContextVal, memo: Memo) -> ContextVal:
    copy = ContextVal.__new__(ContextVal)
    memo[id(ctx)] = copy
    copy.done = _value(ctx.done, memo)
    return copy


def _cancel(cancel: CancelFunc, memo: Memo) -> CancelFunc:
    copy = CancelFunc.__new__(CancelFunc)
    memo[id(cancel)] = copy
    copy.ctx = _value(cancel.ctx, memo)
    return copy


def _struct(struct: StructVal, memo: Memo) -> StructVal:
    copy = StructVal.__new__(StructVal)
    memo[id(struct)] = copy
    copy.id = struct.id
    copy.type_name = struct.type_name
    copy.fields = {
        name: v if type(v) in _SHARED else _value(v, memo) for name, v in struct.fields.items()
    }
    return copy


def _slice(slice_: SliceVal, memo: Memo) -> SliceVal:
    copy = SliceVal.__new__(SliceVal)
    memo[id(slice_)] = copy
    copy.id = slice_.id
    copy.elems = _values(slice_.elems, memo)
    return copy


def _closure(closure: Closure, memo: Memo) -> Closure:
    copy = Closure.__new__(Closure)
    memo[id(closure)] = copy
    copy.func_name = closure.func_name
    copy.env = _value(closure.env, memo)
    return copy


def _testing(t: TestingT, memo: Memo) -> TestingT:
    copy = TestingT.__new__(TestingT)
    memo[id(t)] = copy
    copy.failed = t.failed
    return copy


def _offer(offer: Offer, memo: Memo) -> Offer:
    copy = Offer.__new__(Offer)
    memo[id(offer)] = copy
    copy.kind = offer.kind
    copy.obj = _value(offer.obj, memo)
    copy.value = _value(offer.value, memo)
    return copy


def _frame(frame: Frame, memo: Memo) -> Frame:
    copy = Frame.__new__(Frame)
    memo[id(frame)] = copy
    copy.func = frame.func
    copy.env = _value(frame.env, memo)
    copy.block = frame.block
    copy.idx = frame.idx
    copy.deferred = [(_value(target, memo), _values(args, memo)) for target, args in frame.deferred]
    copy.dsts = frame.dsts  # IR variables, never mutated
    copy.returning = frame.returning
    copy.ret_values = _values(frame.ret_values, memo)
    return copy


def _goroutine(g: Goroutine, memo: Memo) -> Goroutine:
    copy = Goroutine.__new__(Goroutine)
    memo[id(g)] = copy
    copy.gid = g.gid
    copy.frames = [_value(frame, memo) for frame in g.frames]
    copy.status = g.status
    copy.offers = [_value(offer, memo) for offer in g.offers]
    copy.resume_action = None if g.resume_action is None else _tuple(g.resume_action, memo)
    copy.park_time = g.park_time
    copy.sleep_until = g.sleep_until
    copy.steps = g.steps
    copy.blocked_line = g.blocked_line
    copy.blocked_kind = g.blocked_kind
    copy.panic_message = g.panic_message
    return copy


def _interpreter(interp: Interpreter, memo: Memo) -> Interpreter:
    copy = Interpreter.__new__(Interpreter)
    memo[id(interp)] = copy
    copy.program = interp.program
    copy.policy = None  # a copy is detached; resuming it attaches one
    copy.collector = None
    copy.goroutines = {gid: _value(g, memo) for gid, g in interp.goroutines.items()}
    copy._next_gid = interp._next_gid
    copy.clock = interp.clock
    copy.output = list(interp.output)
    copy.panicked = interp.panicked
    copy.panic_message = interp.panic_message
    copy.test_failed = interp.test_failed
    return copy


_CLONERS: Dict[type, Callable[[Any, Memo], Any]] = {
    tuple: _tuple,
    Env: _env,
    Channel: _channel,
    MutexVal: _mutex,
    WaitGroupVal: _waitgroup,
    CondVal: _cond,
    ContextVal: _context,
    CancelFunc: _cancel,
    StructVal: _struct,
    SliceVal: _slice,
    Closure: _closure,
    TestingT: _testing,
    Offer: _offer,
    Frame: _frame,
    Goroutine: _goroutine,
    Interpreter: _interpreter,
}


def copy_interpreter(interp: Interpreter, mid_step: Optional[int] = None) -> Interpreter:
    """A detached copy of ``interp``'s state: no policy, no collector.

    ``mid_step`` is the gid of a goroutine whose step is in progress: a
    ``select`` decision is made inside ``Interpreter.step``, after it ticked
    the clock and that goroutine's step count and before it changed anything
    else. The copy rewinds both, so it holds the state at the start of the
    step.
    """
    copy = _interpreter(interp, {})
    if mid_step is not None:
        copy.clock -= 1
        copy.goroutines[mid_step].steps -= 1
    return copy
