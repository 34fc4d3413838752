package memsim

import (
	"reflect"
	"testing"
)

// fuzzOp is one decoded instruction of a fuzzed worker program.
type fuzzOp struct{ code, arg byte }

// fuzzProgram is a multi-worker memsim program decoded from fuzz bytes.
// Every worker runs the same op list, rotated by its id, so workers issue
// different ops at the same step and contend on the shared lines.
type fuzzProgram struct {
	workers   int
	faultSeed byte // 0: no fault model on the NVM tier
	ops       []fuzzOp
}

const fuzzMaxOps = 48

// decodeFuzzProgram maps arbitrary bytes onto a valid program: byte 0
// picks 2–16 workers, byte 1 the fault-model seed (0 = none), and each
// following byte pair is one (opcode, argument) instruction.
func decodeFuzzProgram(data []byte) fuzzProgram {
	p := fuzzProgram{workers: 2}
	if len(data) > 0 {
		p.workers = 2 + int(data[0])%15
	}
	if len(data) > 1 {
		p.faultSeed = data[1]
	}
	for i := 2; i+1 < len(data) && len(p.ops) < fuzzMaxOps; i += 2 {
		p.ops = append(p.ops, fuzzOp{data[i], data[i+1]})
	}
	return p
}

// fuzzOutcome is everything a run of a fuzzed program decides: every
// worker's final clock, the order in which workers' host code ran between
// operations, the device, LLC, persistence and fault counters, and the
// deadlock watchdog's dump if a long enough run of spins tripped it.
type fuzzOutcome struct {
	watchdog string
	elapsed  Time
	now      Time
	clocks   []Time
	order    []int // worker id, appended after every op
	devs     []DeviceStats
	faults   []FaultStats
	ues      []uint64
	llc      CacheStats
	persist  PersistStats
}

// runFuzzProgram executes the program on a small machine (a 16 KiB
// 4-way LLC, so evictions and cross-worker set conflicts are common) with
// a persistence domain on the NVM tier, in the eager-yield reference mode
// or the default scheduler.
func runFuzzProgram(p fuzzProgram, eager bool) fuzzOutcome {
	cfg := DefaultConfig()
	cfg.LLCBytes = 16 << 10
	cfg.LLCAssoc = 4
	cfg.TraceBucket = 0
	cfg.EagerYield = eager
	if p.faultSeed != 0 {
		tiers := DefaultTierSpecs(cfg.DRAM, cfg.NVM)
		tiers[1].Fault = FaultModel{
			Seed:                uint64(p.faultSeed),
			WearThresholdMean:   4 + int64(p.faultSeed%8),
			WearThresholdSpread: 2,
			DegradeUETrip:       3,
			TransientReadPPM:    200_000,
		}
		cfg.Tiers = tiers
	}
	m := NewMachine(cfg)
	pd := m.EnablePersist(m.NVM, false)
	pd.SetBacking(func(uint64) uint64 { return 0 }, func(uint64, uint64) {}, 0, 1<<40)

	out := fuzzOutcome{clocks: make([]Time, p.workers)}
	progress := 0 // shared host state: ops completed across all workers
	func() {
		defer func() {
			if r := recover(); r != nil {
				we, ok := r.(*WatchdogError)
				if !ok {
					panic(r)
				}
				out.watchdog = we.Error()
			}
		}()
		out.elapsed = m.Run(p.workers, func(w *Worker) {
			for step := range p.ops {
				op := p.ops[(step+3*w.ID())%len(p.ops)]
				fuzzExec(m, w, op, &progress)
				progress++
				out.order = append(out.order, w.ID())
			}
			out.clocks[w.ID()] = w.Now()
		})
	}()
	out.now = m.Now()
	for _, t := range m.Topology().Tiers() {
		out.devs = append(out.devs, t.Stats())
		out.faults = append(out.faults, t.FaultStats())
		out.ues = append(out.ues, t.DrainNewUEs()...)
	}
	out.llc = m.LLC.Stats()
	out.persist = pd.Stats()
	return out
}

// fuzzExec issues one instruction. The argument's top bit selects one of
// 16 shared lines (touched by every worker) or a worker-private line, bit
// 6 the device, and the low bits the line and size.
func fuzzExec(m *Machine, w *Worker, op fuzzOp, progress *int) {
	dev := m.NVM
	if op.arg&0x40 != 0 {
		dev = m.DRAM
	}
	line := uint64(op.arg & 0x0f)
	addr := line * LineSize
	if op.arg&0x80 == 0 {
		addr += uint64(w.ID()+1) << 20
	}
	n := int64(op.arg&0x30>>4+1) * LineSize
	seq := op.arg&1 != 0
	switch op.code % 11 {
	case 0:
		w.Read(dev, addr, n, seq)
	case 1:
		m.Persist().OnStore(dev, addr, n)
		w.Write(dev, addr, n, seq)
	case 2:
		w.ReadWord(dev, addr)
		if dev.TransientReadFault(addr) {
			w.Advance(64) // a retry backoff, like the collector's
		}
	case 3:
		m.Persist().OnStore(dev, addr, 8)
		w.WriteWord(dev, addr)
	case 4:
		m.Persist().OnNT(dev, addr, n)
		w.WriteNT(dev, addr, n)
	case 5:
		w.Prefetch(dev, addr, n, seq)
	case 6:
		w.CLWB(dev, addr)
		w.PersistFence()
	case 7:
		w.Spin(Time(op.arg%8) + 1)
	case 8:
		// Wait on shared host state, bounded by a deadline so the wait
		// always ends. Consecutive waits with no real operation between
		// them can still add up to a streak that trips the watchdog.
		target := *progress + int(op.arg%16)
		deadline := w.Now() + Time(op.arg)*16
		w.SpinWait(Time(op.arg%8)+1, func() bool {
			return *progress >= target || w.Now() >= deadline
		})
	case 9:
		w.Advance(Time(op.arg))
	case 10:
		w.Fence()
	}
}

// FuzzSchedulerEquivalence runs fuzzed multi-worker programs under the
// eager-yield reference scheduler and the default scheduler (event
// horizon, delegated accounting, in-place spin advancement) and requires
// identical outcomes: per-worker clocks, host-code interleaving, and
// every device, LLC, persistence and fault counter. The checked-in corpus
// under testdata/fuzz replays on every `go test`.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0x81, 1, 0x82, 7, 3})
	f.Add([]byte{14, 0, 0, 0x80, 1, 0x80, 2, 0x85, 3, 0x85, 8, 0x2f, 9, 40, 6, 0x83})
	f.Add([]byte{6, 5, 1, 0x01, 1, 0x11, 3, 0x02, 6, 0x01, 4, 0x21, 1, 0x81, 3, 0x81})
	f.Add([]byte{3, 9, 5, 0x84, 0, 0x84, 1, 0x44, 2, 0xc4, 8, 0x9f, 7, 5, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		if len(p.ops) == 0 {
			return
		}
		ref := runFuzzProgram(p, true)
		got := runFuzzProgram(p, false)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("program %+v: default scheduler diverged from the eager reference:\n got %+v\nwant %+v",
				p, got, ref)
		}
	})
}
