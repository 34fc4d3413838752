package memsim

import (
	"runtime"
	"testing"
)

// schedWorkload is a device-heavy phase body exercising every yield point:
// cached reads/writes, streaming stores, prefetches and busy-wait spins,
// with inter-worker contention on both devices and on shared LLC sets.
func schedWorkload(m *Machine) func(*Worker) {
	return func(w *Worker) {
		base := uint64(w.ID()) << 22
		for i := 0; i < 120; i++ {
			w.Read(m.NVM, base+uint64(i*4096), 256, false)
			w.Write(m.NVM, base+uint64(i*4096), 16, false)
			if i%4 == 0 {
				w.Prefetch(m.NVM, base+uint64((i+8)*4096), 128, false)
			}
			if i%7 == 0 {
				w.Read(m.DRAM, uint64(i*64), 64, i%2 == 0) // shared lines
			}
			if i%9 == 0 {
				w.WriteNT(m.NVM, base+1<<21+uint64(i)*256, 256)
			}
			if i%13 == 0 {
				w.Spin(5)
			}
			w.Advance(Time(i % 3))
		}
	}
}

type schedSnapshot struct {
	elapsed Time
	now     Time
	nvm     DeviceStats
	dram    DeviceStats
	llc     CacheStats
}

func runSchedWorkload(workers int, eager bool) schedSnapshot {
	m := testMachine()
	m.SetEagerYield(eager)
	el := m.Run(workers, schedWorkload(m))
	return schedSnapshot{elapsed: el, now: m.Now(), nvm: m.NVM.Stats(), dram: m.DRAM.Stats(), llc: m.LLC.Stats()}
}

// TestGoldenSchedulerDeterminism is the scheduler's golden test: the
// event-horizon scheduler must produce bit-identical virtual times, device
// counters and cache counters to the eager-yield reference, at every
// worker count, and both must be self-deterministic across repeats.
func TestGoldenSchedulerDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 16, 56} {
		horizon := runSchedWorkload(workers, false)
		eager := runSchedWorkload(workers, true)
		if horizon != eager {
			t.Errorf("workers=%d: horizon %+v != eager %+v", workers, horizon, eager)
		}
		if again := runSchedWorkload(workers, false); again != horizon {
			t.Errorf("workers=%d: horizon scheduler not deterministic: %+v vs %+v", workers, horizon, again)
		}
	}
}

// TestHorizonSkipsHandoffs sanity-checks that the lookahead actually
// short-circuits: a worker that stays strictly earliest must not hand off
// at every operation (a livelock here would time the test out).
func TestHorizonSkipsHandoffs(t *testing.T) {
	m := testMachine()
	el := m.Run(2, func(w *Worker) {
		if w.ID() == 0 {
			for i := 0; i < 1000; i++ {
				w.Read(m.NVM, uint64(i)*64, 64, true)
			}
		} else {
			w.Advance(10 * Second) // parks far in the future
			w.Spin(1)
		}
	})
	if el < 10*Second {
		t.Fatalf("elapsed %d should cover the parked worker", el)
	}
}

// runRecovered runs a 16-worker phase and returns what Run panicked with
// (nil for a normal return).
func runRecovered(m *Machine, body func(*Worker)) (r any) {
	defer func() { r = recover() }()
	m.Run(16, body)
	return nil
}

// TestRunReleasesCoroutines checks the worker coroutine lifecycle: however
// a 16-worker phase ends — normally, through a FaultPlan crash unwind,
// through the deadlock watchdog, or with a body panicking with an
// ordinary value — Run leaves no coroutine behind. The foreign panic must
// surface from Run, where the caller can recover it, after every other
// worker has been unwound.
func TestRunReleasesCoroutines(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Machine)
		body  func(m *Machine, unwound *int) func(*Worker)
		check func(t *testing.T, m *Machine, r any, unwound int)
	}{
		{
			name: "normal return",
			body: func(m *Machine, _ *int) func(*Worker) { return schedWorkload(m) },
			check: func(t *testing.T, _ *Machine, r any, _ int) {
				if r != nil {
					t.Fatalf("normal phase panicked: %v", r)
				}
			},
		},
		{
			name:  "crash unwind",
			setup: func(m *Machine) { m.InjectFault(FaultPlan{CrashAtTime: 5 * Microsecond}) },
			body: func(m *Machine, _ *int) func(*Worker) {
				return func(w *Worker) {
					for i := 0; ; i++ {
						w.Read(m.NVM, uint64(w.ID())<<20+uint64(i*64), 64, false)
					}
				}
			},
			check: func(t *testing.T, m *Machine, r any, _ int) {
				if r != nil {
					t.Fatalf("crash unwind escaped Run: %v", r)
				}
				if !m.Crashed() {
					t.Fatal("crash trigger did not fire")
				}
			},
		},
		{
			name: "watchdog deadlock",
			body: func(m *Machine, _ *int) func(*Worker) {
				return func(w *Worker) {
					w.Read(m.DRAM, uint64(w.ID())*64, 8, false)
					for {
						w.Spin(60)
					}
				}
			},
			check: func(t *testing.T, _ *Machine, r any, _ int) {
				if _, ok := r.(*WatchdogError); !ok {
					t.Fatalf("deadlocked phase panicked with %v, want *WatchdogError", r)
				}
			},
		},
		{
			name: "foreign panic",
			body: func(m *Machine, unwound *int) func(*Worker) {
				return func(w *Worker) {
					defer func() {
						if r := recover(); r != nil {
							*unwound++
							panic(r)
						}
					}()
					for i := 0; ; i++ {
						w.Read(m.NVM, uint64(w.ID())<<20+uint64(i*64), 64, false)
						if w.ID() == 5 && i == 50 {
							panic("boom")
						}
					}
				}
			},
			check: func(t *testing.T, _ *Machine, r any, unwound int) {
				if r != "boom" {
					t.Fatalf("Run panicked with %v, want the body's \"boom\"", r)
				}
				// Worker 5 itself and the 15 parked peers all unwound.
				if unwound != 16 {
					t.Fatalf("%d worker bodies unwound, want 16", unwound)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LLCBytes = 1 << 16
			cfg.WatchdogSpins = 256
			m := NewMachine(cfg)
			if tc.setup != nil {
				tc.setup(m)
			}
			before := runtime.NumGoroutine()
			unwound := 0
			inner := tc.body(m, &unwound)
			peak := 0
			r := runRecovered(m, func(w *Worker) {
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
				inner(w)
			})
			tc.check(t, m, r, unwound)
			if peak < before+16 {
				t.Fatalf("%d goroutines during the phase, want at least %d: workers are not coroutines", peak, before+16)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("%d goroutines after Run, %d before: worker coroutines leaked", after, before)
			}
		})
	}
}
