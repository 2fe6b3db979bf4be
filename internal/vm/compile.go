package vm

// The ahead-of-time compilation tier: validated bytecode is translated
// once per module into token-threaded code — per-function arrays of Go
// closures over the register form computed in ir.go — and every instance
// of the module executes the closures instead of the switch interpreter.
//
// The tier is behaviorally identical to the interpreter by construction:
//   - Fuel is charged from the same blockFuel array at the same block
//     leaders, with the same exhaustion semantics (the remainder is
//     consumed so FuelUsed reports the full budget) and the same
//     non-consuming host-call precheck, so FuelUsed matches to the unit.
//   - Every trap (bounds, division, stack limits, unreachable, halt, host
//     errors) fires at the same pc with the same wrapped error. Stack
//     underflow is decided statically (a pc whose depth is too shallow
//     compiles to a trap closure); overflow remains a runtime check
//     against the frame's precomputed headroom.
//   - Stores and memory growth go through the same dirty-region tracking
//     (noteWrite / grow), so ResetFast isolation is preserved for pooled
//     instances running compiled code.
//
// Within a basic block the symbolic translator (translate.go) collapses
// stack traffic entirely: constant pushes and local reads become operand
// descriptors consumed in place, ALU results flow straight into locals,
// and compare-and-branch pairs fuse into single closures. A closure that
// stands in for several source instructions reports the pc of the
// component that would have trapped. Functions the translator declines
// fall back to the one-closure-per-instruction emitter in this file.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// Tier selects the execution engine for an instance.
type Tier uint8

const (
	// TierThreaded runs compiled token-threaded code, falling back to the
	// interpreter for modules the compiler rejects. The default.
	TierThreaded Tier = iota
	// TierInterp forces the switch interpreter: the differential-test
	// oracle the threaded tier is held to.
	TierInterp
)

func (t Tier) String() string {
	if t == TierInterp {
		return "interp"
	}
	return "threaded"
}

// Compilation telemetry, process-global like the fault counters: surfaced
// as vm.compiled_modules / vm.interp_fallbacks / vm.compile_ns so a
// production fallback to the interpreter is visible, not silent.
var (
	statCompiledModules atomic.Uint64
	statInterpFallbacks atomic.Uint64
	statCompileNs       atomic.Int64
)

// CompileStats is a snapshot of the compilation counters.
type CompileStats struct {
	// CompiledModules counts modules successfully translated to threaded
	// code.
	CompiledModules uint64
	// InterpFallbacks counts modules the compiler rejected plus
	// instantiations that fell back because the host-function arities
	// differed from the ones the module was compiled against.
	InterpFallbacks uint64
	// CompileNs is the total time spent compiling, in nanoseconds.
	CompileNs int64
}

// CompilerStats returns the process-wide compilation counters.
func CompilerStats() CompileStats {
	return CompileStats{
		CompiledModules: statCompiledModules.Load(),
		InterpFallbacks: statInterpFallbacks.Load(),
		CompileNs:       statCompileNs.Load(),
	}
}

// thDone is the sentinel "ip" a closure returns to leave the function:
// a return when thState.trap is nil, a trap otherwise.
const thDone = -1

// thOp executes one (possibly fused) instruction and returns the next ip.
type thOp func(m *thState) int

// thFunc is one compiled function.
type thFunc struct {
	name      string
	numParams int
	numLocals int // params + declared locals
	nret      int // values every return leaves for the caller
	need      int // frame registers: numLocals + static max stack depth
	ops       []thOp
	// bfuel mirrors Func.blockFuel: the fuel charge owed when execution
	// lands on a block leader, zero elsewhere. The trampoline charges it so
	// individual closures never carry metering code.
	bfuel []int64
}

// thModule is the compiled form of a Module, shared (immutably) by all
// its instances.
type thModule struct {
	funcs []*thFunc
}

// thState is the per-instance machine state threaded through the closures.
// Registers live in Instance.regFile — closures index it through m.inst so
// growth during nested calls is never observed through a stale slice.
type thState struct {
	inst *Instance
	// fp is the current frame's base register. Frame layout: params,
	// declared locals, then one register per operand-stack slot.
	fp int
	// height is the interpreter-equivalent total value-stack height at
	// frame entry (operand slots only — locals never counted, exactly as
	// the interpreter keeps locals off the value stack). Push sites
	// compare it against precomputed headroom to reproduce the
	// maxValueStack trap.
	height int
	// depth is the live frame count, bounded by maxCallDepth.
	depth   int
	metered bool
	active  bool // a threaded call is running (reentry falls back to interp)
	trap    error
	hargs   []int64 // reusable host-call argument scratch
}

// failAt records the trap exactly as the interpreter's trapf would.
func (m *thState) failAt(name string, pc int, err error) int {
	m.trap = fmt.Errorf("%w (in %s at pc %d)", err, name, pc)
	return thDone
}

// run drives the threaded loop for one frame. The metered loop charges
// block fuel from bfuel before dispatching a leader, with the same
// exhaustion semantics as the interpreter (the remainder is consumed so
// FuelUsed reports the full budget). Control only ever lands on block
// leaders or pcs inside a block whose bfuel is zero, so the per-dispatch
// check reproduces per-block accounting exactly.
func (tf *thFunc) run(m *thState) {
	ops := tf.ops
	if !m.metered {
		for ip := 0; ip >= 0; {
			ip = ops[ip](m)
		}
		return
	}
	bfuel := tf.bfuel[:len(ops)] // one bounds check covers both arrays
	inst := m.inst
	for ip := 0; ip >= 0; {
		if bf := bfuel[ip]; bf != 0 {
			if inst.fuel < bf {
				inst.used += inst.fuel
				inst.fuel = 0
				m.failAt(tf.name, ip, ErrOutOfFuel)
				return
			}
			inst.fuel -= bf
			inst.used += bf
		}
		ip = ops[ip](m)
	}
}

// growRegs extends the register file, preserving live frames.
func (inst *Instance) growRegs(need int) {
	if c := 2 * len(inst.regFile); need < c {
		need = c
	}
	grown := make([]int64, need)
	copy(grown, inst.regFile)
	inst.regFile = grown
}

// callThreaded runs function idx on the compiled tier. Arguments are
// already length-checked by CallIndex.
func (inst *Instance) callThreaded(idx int, args []int64) (int64, error) {
	tf := inst.thmod.funcs[idx]
	m := &inst.tstate
	m.inst = inst
	m.active = true
	m.fp = 0
	m.height = 0
	m.depth = 1
	m.metered = inst.fuel > 0
	m.trap = nil
	if m.hargs == nil {
		m.hargs = make([]int64, 0, 8)
	}
	if tf.need > len(inst.regFile) {
		inst.growRegs(tf.need)
	}
	rf := inst.regFile
	copy(rf, args)
	for i := tf.numParams; i < tf.numLocals; i++ {
		rf[i] = 0
	}
	tf.run(m)
	m.active = false
	if m.trap != nil {
		return 0, m.trap
	}
	if tf.nret > 0 {
		return inst.regFile[tf.numLocals+tf.nret-1], nil
	}
	return 0, nil
}

// compileModule translates a validated module. ok=false means the module
// stays on the interpreter.
func compileModule(m *Module, sigs []hostSig) (*thModule, bool) {
	irs, ok := analyzeModule(m, sigs)
	if !ok {
		return nil, false
	}
	tm := &thModule{funcs: make([]*thFunc, len(m.Funcs))}
	for i := range m.Funcs {
		f := &m.Funcs[i]
		nl := f.NumParams + f.NumLocals
		bf := make([]int64, len(f.code))
		for pc, v := range f.blockFuel {
			bf[pc] = int64(v)
		}
		tm.funcs[i] = &thFunc{
			name:      f.Name,
			numParams: f.NumParams,
			numLocals: nl,
			nret:      irs[i].nret,
			need:      nl + irs[i].maxDepth,
			ops:       make([]thOp, len(f.code)),
			bfuel:     bf,
		}
	}
	for i := range m.Funcs {
		emitFunc(m, i, irs[i], tm, sigs)
	}
	return tm, true
}

// emitFunc fills in one function's closure array: block-level symbolic
// translation (translate.go) when it applies, the one-closure-per-pc
// emitter below otherwise. Fuel is charged by the trampoline from
// thFunc.bfuel, never by the closures.
func emitFunc(m *Module, fi int, ir *funcIR, tm *thModule, sigs []hostSig) {
	f := &m.Funcs[fi]
	tf := tm.funcs[fi]
	if !emitFuncSym(m, fi, ir, tm, sigs) {
		for pc := range f.code {
			tf.ops[pc] = emitOp(m, f, tf, ir, tm, sigs, pc)
		}
	}
}

// emitOp lowers code[pc] to a closure over the register form. d is the
// static stack depth on entry; slot i of the operand stack lives in frame
// register numLocals+i.
func emitOp(m *Module, f *Func, tf *thFunc, ir *funcIR, tm *thModule, sigs []hostSig, pc int) thOp {
	name := f.Name
	nl := tf.numLocals
	in := f.code[pc]
	at := pc // captured trap location
	if ir.depth[pc] < 0 {
		// Statically unreachable; can never execute, guard anyway.
		return func(m *thState) int { return m.failAt(name, at, ErrUnreachable) }
	}
	d := int(ir.depth[pc])
	if ir.under[pc] {
		// The interpreter would trap here with ErrStackUnderflow — except
		// at a call site, where the frame-depth limit is checked first.
		if in.op == opCall {
			return func(m *thState) int {
				if m.depth >= maxCallDepth {
					return m.failAt(name, at, ErrStackOverflow)
				}
				return m.failAt(name, at, ErrStackUnderflow)
			}
		}
		return func(m *thState) int { return m.failAt(name, at, ErrStackUnderflow) }
	}
	next := pc + 1
	top := nl + d - 1        // register of the current stack top
	lim := maxValueStack - d // push headroom: trap when height >= lim

	switch in.op {
	case opNop, opPop:
		// Pop at a consistent depth is pure bookkeeping in register form.
		return func(m *thState) int { return next }
	case opUnreachable:
		return func(m *thState) int { return m.failAt(name, at, ErrUnreachable) }
	case opHalt:
		return func(m *thState) int { return m.failAt(name, at, ErrHalted) }

	case opPush:
		val := in.arg
		dst := nl + d
		return func(m *thState) int {
			if m.height >= lim {
				return m.failAt(name, at, ErrStackOverflow)
			}
			m.inst.regFile[m.fp+dst] = val
			return next
		}
	case opDup:
		dst := nl + d
		return func(m *thState) int {
			if m.height >= lim {
				return m.failAt(name, at, ErrStackOverflow)
			}
			rf := m.inst.regFile
			rf[m.fp+dst] = rf[m.fp+top]
			return next
		}
	case opSwap:
		a := top - 1
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a], rf[m.fp+a+1] = rf[m.fp+a+1], rf[m.fp+a]
			return next
		}

	case opLocalGet:
		src := int(in.arg)
		dst := nl + d
		return func(m *thState) int {
			if m.height >= lim {
				return m.failAt(name, at, ErrStackOverflow)
			}
			rf := m.inst.regFile
			rf[m.fp+dst] = rf[m.fp+src]
			return next
		}
	case opLocalSet, opLocalTee:
		// Identical in register form: tee keeps the slot, set abandons it,
		// and the depth bookkeeping is static.
		dst := int(in.arg)
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+dst] = rf[m.fp+top]
			return next
		}

	case opJmp:
		target := int(in.arg)
		return func(m *thState) int { return target }
	case opJz:
		target := int(in.arg)
		return func(m *thState) int {
			if m.inst.regFile[m.fp+top] == 0 {
				return target
			}
			return next
		}
	case opJnz:
		target := int(in.arg)
		return func(m *thState) int {
			if m.inst.regFile[m.fp+top] != 0 {
				return target
			}
			return next
		}

	case opRet:
		return func(m *thState) int { return thDone }

	case opCall:
		callee := tm.funcs[in.arg]
		np := callee.numParams
		cnl := callee.numLocals
		cneed := callee.need
		cret := callee.nret
		// The callee's frame starts at the caller's argument slots, so
		// params pass by aliasing: caller stack slots [d-np, d) are the
		// callee's registers [0, np).
		frameOff := nl + d - np
		hDelta := d - np
		return func(m *thState) int {
			if m.depth >= maxCallDepth {
				return m.failAt(name, at, ErrStackOverflow)
			}
			inst := m.inst
			cfp := m.fp + frameOff
			if want := cfp + cneed; want > len(inst.regFile) {
				inst.growRegs(want)
			}
			rf := inst.regFile
			for i := cfp + np; i < cfp+cnl; i++ {
				rf[i] = 0
			}
			sfp, sh := m.fp, m.height
			m.fp = cfp
			m.height += hDelta
			m.depth++
			callee.run(m)
			m.fp, m.height = sfp, sh
			m.depth--
			if m.trap != nil {
				return thDone
			}
			if cret > 0 {
				// Move the callee's results down over its frame, where the
				// caller's stack continues.
				rf = inst.regFile
				copy(rf[cfp:cfp+cret], rf[cfp+cnl:cfp+cnl+cret])
			}
			return next
		}

	case opAdd, opSub, opMul, opDivS, opRemS, opAnd, opOr, opXor, opShl, opShrS, opShrU,
		opEq, opNe, opLtS, opGtS, opLeS, opGeS:
		return emitBin(in.op, name, at, top-1, next)

	case opEqz:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+top] = b2i(rf[m.fp+top] == 0)
			return next
		}

	case opLoad8U:
		return func(m *thState) int {
			inst := m.inst
			rf := inst.regFile
			addr := rf[m.fp+top]
			if addr < 0 || addr >= int64(len(inst.mem)) {
				return m.failAt(name, at, ErrMemOutOfBounds)
			}
			rf[m.fp+top] = int64(inst.mem[addr])
			return next
		}
	case opLoad64:
		return func(m *thState) int {
			inst := m.inst
			rf := inst.regFile
			addr := rf[m.fp+top]
			if addr < 0 || addr+8 > int64(len(inst.mem)) {
				return m.failAt(name, at, ErrMemOutOfBounds)
			}
			rf[m.fp+top] = int64(binary.LittleEndian.Uint64(inst.mem[addr:]))
			return next
		}
	case opStore8:
		a := top - 1
		return func(m *thState) int {
			inst := m.inst
			rf := inst.regFile
			addr := rf[m.fp+a]
			if addr < 0 || addr >= int64(len(inst.mem)) {
				return m.failAt(name, at, ErrMemOutOfBounds)
			}
			inst.mem[addr] = byte(rf[m.fp+a+1])
			inst.noteWrite(addr + 1)
			return next
		}
	case opStore64:
		a := top - 1
		return func(m *thState) int {
			inst := m.inst
			rf := inst.regFile
			addr := rf[m.fp+a]
			if addr < 0 || addr+8 > int64(len(inst.mem)) {
				return m.failAt(name, at, ErrMemOutOfBounds)
			}
			binary.LittleEndian.PutUint64(inst.mem[addr:], uint64(rf[m.fp+a+1]))
			inst.noteWrite(addr + 8)
			return next
		}

	case opMemSize:
		dst := nl + d
		return func(m *thState) int {
			if m.height >= lim {
				return m.failAt(name, at, ErrStackOverflow)
			}
			inst := m.inst
			inst.regFile[m.fp+dst] = int64(len(inst.mem))
			return next
		}
	case opMemGrow:
		return func(m *thState) int {
			inst := m.inst
			rf := inst.regFile
			old := int64(len(inst.mem))
			if err := inst.grow(rf[m.fp+top]); err != nil {
				return m.failAt(name, at, err)
			}
			rf[m.fp+top] = old
			return next
		}

	case opHostCall:
		hidx := int(in.arg)
		sig := sigs[hidx]
		na := sig.nargs
		hasRet := sig.hasRet
		abase := nl + d - na
		retLim := maxValueStack - (d - na)
		return func(m *thState) int {
			inst := m.inst
			hf := inst.hosts[hidx]
			if m.metered {
				// The precheck does not consume the remainder, matching
				// the interpreter.
				if inst.fuel < hf.Cost {
					return m.failAt(name, at, ErrOutOfFuel)
				}
				inst.fuel -= hf.Cost
				inst.used += hf.Cost
			}
			m.hargs = append(m.hargs[:0], inst.regFile[m.fp+abase:m.fp+abase+na]...)
			ret, err := hf.Fn(inst, m.hargs)
			if err != nil {
				return m.failAt(name, at, &HostError{Err: err})
			}
			if hasRet {
				if m.height >= retLim {
					return m.failAt(name, at, ErrStackOverflow)
				}
				inst.regFile[m.fp+abase] = ret
			}
			return next
		}

	case opPushPair:
		hi := in.arg >> 32
		lo := in.arg & 0xffffffff
		dst := nl + d
		pairLim := maxValueStack - d - 1
		return func(m *thState) int {
			if m.height >= pairLim {
				return m.failAt(name, at, ErrStackOverflow)
			}
			rf := m.inst.regFile
			rf[m.fp+dst] = hi
			rf[m.fp+dst+1] = lo
			return next
		}
	case opUnpackPtr:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+top] = int64(uint64(rf[m.fp+top]) >> 32)
			return next
		}
	case opUnpackLen:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+top] &= 0xffffffff
			return next
		}
	case opAddI:
		k := in.arg
		return func(m *thState) int {
			m.inst.regFile[m.fp+top] += k
			return next
		}
	case opLocalAddI:
		dst := int(in.arg >> 32)
		k := int64(int32(in.arg & 0xffffffff))
		return func(m *thState) int {
			m.inst.regFile[m.fp+dst] += k
			return next
		}
	}
	// Validate rejects unknown opcodes and analyzeFunc re-checks, so this
	// is unreachable; trap defensively rather than crash.
	return func(m *thState) int {
		return m.failAt(name, at, fmt.Errorf("vm: unknown opcode %d", in.op))
	}
}

// emitBin lowers a two-operand arithmetic/compare op: operands in
// registers a, a+1, result in a.
func emitBin(op opcode, name string, at, a, next int) thOp {
	switch op {
	case opAdd:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] += rf[m.fp+a+1]
			return next
		}
	case opSub:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] -= rf[m.fp+a+1]
			return next
		}
	case opMul:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] *= rf[m.fp+a+1]
			return next
		}
	case opDivS:
		return func(m *thState) int {
			rf := m.inst.regFile
			x, y := rf[m.fp+a], rf[m.fp+a+1]
			if y == 0 || (x == math.MinInt64 && y == -1) {
				return m.failAt(name, at, ErrDivByZero)
			}
			rf[m.fp+a] = x / y
			return next
		}
	case opRemS:
		return func(m *thState) int {
			rf := m.inst.regFile
			y := rf[m.fp+a+1]
			if y == 0 {
				return m.failAt(name, at, ErrDivByZero)
			}
			rf[m.fp+a] %= y
			return next
		}
	case opAnd:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] &= rf[m.fp+a+1]
			return next
		}
	case opOr:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] |= rf[m.fp+a+1]
			return next
		}
	case opXor:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] ^= rf[m.fp+a+1]
			return next
		}
	case opShl:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] <<= uint64(rf[m.fp+a+1]) & 63
			return next
		}
	case opShrS:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] >>= uint64(rf[m.fp+a+1]) & 63
			return next
		}
	case opShrU:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] = int64(uint64(rf[m.fp+a]) >> (uint64(rf[m.fp+a+1]) & 63))
			return next
		}
	case opEq:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] = b2i(rf[m.fp+a] == rf[m.fp+a+1])
			return next
		}
	case opNe:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] = b2i(rf[m.fp+a] != rf[m.fp+a+1])
			return next
		}
	case opLtS:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] = b2i(rf[m.fp+a] < rf[m.fp+a+1])
			return next
		}
	case opGtS:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] = b2i(rf[m.fp+a] > rf[m.fp+a+1])
			return next
		}
	case opLeS:
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] = b2i(rf[m.fp+a] <= rf[m.fp+a+1])
			return next
		}
	default: // opGeS
		return func(m *thState) int {
			rf := m.inst.regFile
			rf[m.fp+a] = b2i(rf[m.fp+a] >= rf[m.fp+a+1])
			return next
		}
	}
}
