package vtime

import (
	"testing"
	"time"
)

// The layer harness: what one virtual context switch, queue hop, spawn and
// timer costs on its own, and — as tests — what each may allocate. `go test
// -bench=. ./internal/vtime` prints the numbers; the budgets fail the build.

// BenchmarkSwitch is a timed park: 64 processes trading the one execution
// slot through Sleep, the shape of a boot wave or of heartbeats.
func BenchmarkSwitch(b *testing.B) {
	const procs = 64
	s := NewScheduler()
	b.ReportAllocs()
	for p := 0; p < procs; p++ {
		d := time.Duration(p%7+1) * time.Millisecond
		s.Go(func() {
			for i := p; i < b.N; i += procs {
				s.Sleep(d)
			}
		})
	}
	s.Wait()
}

// BenchmarkQueueHop bounces one value between two queues. parked: between
// two processes, each hop a Push that wakes a parked Pop, then a park.
// served: between two served queues, each hop a Push that admits the other
// queue's drain, which takes a pooled coroutine and returns it.
func BenchmarkQueueHop(b *testing.B) {
	b.Run("parked", func(b *testing.B) {
		s := NewScheduler()
		ping, pong := NewQueue(s), NewQueue(s)
		b.ReportAllocs()
		s.Go(func() {
			for i := 0; i < b.N/2; i++ {
				ping.Pop()
				pong.Push(i)
			}
		})
		s.Go(func() {
			for i := 0; i < b.N/2; i++ {
				ping.Push(i)
				pong.Pop()
			}
		})
		s.Wait()
	})
	b.Run("served", func(b *testing.B) {
		s := NewScheduler()
		ping, pong := NewQueue(s), NewQueue(s)
		hops := 0
		bounce := func(to *Queue) func(any) {
			return func(v any) {
				if hops++; hops < b.N {
					to.Push(v)
				}
			}
		}
		ping.Serve(bounce(pong))
		pong.Serve(bounce(ping))
		b.ReportAllocs()
		ping.Push(0)
		s.Wait()
	})
}

// BenchmarkSpawnExit starts and finishes b.N empty processes.
func BenchmarkSpawnExit(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Go(func() {})
	}
	s.Wait()
}

// timerDelay spreads timers over a virtual minute the way a boot wave does.
func timerDelay(i int) time.Duration { return time.Duration(i*7919%60000+1) * time.Millisecond }

// BenchmarkTimerFire places b.N AfterFunc timers and runs them all.
func BenchmarkTimerFire(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(timerDelay(i), func() {})
	}
	s.Wait()
}

// BenchmarkTimerStop places b.N timers and stops every one.
func BenchmarkTimerStop(b *testing.B) {
	s := NewScheduler()
	placed := make([]*Timer, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range placed {
		placed[i] = s.AfterFunc(timerDelay(i), func() {})
	}
	for _, t := range placed {
		t.Stop()
	}
}

// TestDispatchAllocBudgets pins what the scheduler's primitives may allocate
// once a world is warm. Each case keeps one process parked on a command
// queue; a measured run pushes one command — the process performs the
// operation opsPerRun times and parks again — and drives to quiescence, so
// the count covers the process, its partners and the driver.
func TestDispatchAllocBudgets(t *testing.T) {
	const opsPerRun = 32
	cases := []struct {
		name   string
		budget float64 // allocations per operation
		// setup prepares partners and returns the operation, which runs
		// inside the commanded process. Queues come from newQueue so the
		// case can close them all when it is done.
		setup func(s *Scheduler, newQueue func() *Queue) (op func())
	}{
		{"steady-state Sleep", 0, func(s *Scheduler, newQueue func() *Queue) func() {
			return func() { s.Sleep(time.Millisecond) }
		}},
		{"parked Pop woken by Push", 0, func(s *Scheduler, newQueue func() *Queue) func() {
			ping, pong := newQueue(), newQueue()
			s.Go(func() { // echo
				for {
					v, err := ping.Pop()
					if err != nil {
						return
					}
					pong.Push(v)
				}
			})
			return func() {
				ping.Push(1)
				pong.Pop()
			}
		}},
		{"fresh queue's one parked Pop woken by one Push (the Queue itself)", 1, func(s *Scheduler, newQueue func() *Queue) func() {
			hand := newQueue()
			s.Go(func() { // pushes one value to each queue it is handed
				for {
					q, err := hand.Pop()
					if err != nil {
						return
					}
					q.(*Queue).Push(1)
				}
			})
			return func() {
				q := NewQueue(s)
				hand.Push(q)
				q.Pop()
			}
		}},
		{"served hop", 0, func(s *Scheduler, newQueue func() *Queue) func() {
			ping, pong := newQueue(), newQueue()
			ping.Serve(func(v any) { pong.Push(v) })
			return func() {
				ping.Push(1)
				pong.Pop()
			}
		}},
		{"PushAt then Pop (v needs no boxing)", 0, func(s *Scheduler, newQueue func() *Queue) func() {
			q := newQueue()
			return func() {
				q.PushAt(1, s.Now().Add(time.Millisecond))
				q.Pop()
			}
		}},
		{"spawn and exit on a warm pool (the caller's closure)", 1, func(s *Scheduler, newQueue func() *Queue) func() {
			ran := 0
			return func() { s.Go(func() { ran++ }) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewScheduler()
			s.SetPool(NewPool())
			var queues []*Queue
			newQueue := func() *Queue {
				queues = append(queues, NewQueue(s))
				return queues[len(queues)-1]
			}
			cmd := newQueue()
			op := c.setup(s, newQueue)
			s.Go(func() {
				for {
					if _, err := cmd.Pop(); err != nil {
						return
					}
					for i := 0; i < opsPerRun; i++ {
						op()
					}
				}
			})
			s.Wait()
			perRun := testing.AllocsPerRun(20, func() {
				cmd.Push(0)
				s.Wait()
			})
			if perOp := perRun / opsPerRun; perOp > c.budget {
				t.Errorf("%v allocations per operation (%v per run of %d), budget %v", perOp, perRun, opsPerRun, c.budget)
			}
			for _, q := range queues {
				q.Close()
			}
			s.Wait()
		})
	}
}
