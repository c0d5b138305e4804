package vtime

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// world and squeue are what a generated program sees: the part of the
// package's surface simulations are written against, implemented once by
// the real scheduler and once by refSched.
type world interface {
	Go(fn func())
	Sleep(d time.Duration)
	AfterFunc(d time.Duration, fn func()) stopper
	NewQueue() squeue
	Elapsed() time.Duration
	Wait()
	// Serve makes fn the only consumer of q: every value pushed onto q is
	// handed to fn, in FIFO order, one at a time.
	Serve(q squeue, fn func(any))
}

type stopper interface{ Stop() bool }

type squeue interface {
	Push(v any) error
	PushAt(v any, at time.Time)
	Pop() (any, error)
	Close()
}

type realWorld struct{ *Scheduler }

func (w realWorld) AfterFunc(d time.Duration, fn func()) stopper { return w.Scheduler.AfterFunc(d, fn) }
func (w realWorld) NewQueue() squeue                             { return NewQueue(w.Scheduler) }
func (w realWorld) Serve(q squeue, fn func(any))                 { q.(*Queue).Serve(fn) }

// serveByLoop serves q the way the reference does: a process that pops until
// the queue closes and hands each value to fn.
func serveByLoop(w world, q squeue, fn func(any)) {
	w.Go(func() {
		for {
			v, err := q.Pop()
			if err != nil {
				return
			}
			fn(v)
		}
	})
}

// progDelays is deliberately tiny: with four distinct horizons and five
// queues, sleepers, PushAt deliveries and AfterFunc spawns
// land on one instant all the time, which is where dispatch order is
// decided.
var progDelays = []time.Duration{0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}

// progRun executes one generated program on one world and logs every
// operation as "(instant, process, op, value)". What a process does next is
// drawn from an rng seeded by the run's seed and the process's name — its
// place in the spawn tree — and may depend on what it popped, so two worlds
// log the same lines only if they made every scheduling decision alike.
// Execution is serialized by the world under test; the log needs no lock.
//
// The first popQueues queues are popped by the processes; the rest are
// served (world.Serve), each by a daemon handler, and processes only push
// onto them or close them.
type progRun struct {
	w      world
	seed   int64
	qs     []squeue
	timers []stopper // every AfterFunc handle, in call order
	log    []string

	servedPushes map[string]int // "queue@instant" of Pushes and PushAt landings onto served queues
	handling     []bool         // a served queue's handler is inside a call
	parkedPushes int            // pushes onto a served queue while its handler was parked
}

const popQueues, servedQueues = 3, 2

func (r *progRun) logf(name, op string, v any) {
	r.log = append(r.log, fmt.Sprintf("%v %s %s %v", r.w.Elapsed(), name, op, v))
}

func (r *progRun) rng(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(r.seed ^ int64(h.Sum64())))
}

// proc is the body of process name: steps random operations, spawning
// children with half its budget.
func (r *progRun) proc(name string, steps int) func() {
	return func() {
		rng := r.rng(name)
		r.logf(name, "start", steps)
		children := 0
		child := func() func() {
			children++
			return r.proc(fmt.Sprintf("%s.%d", name, children), steps/2)
		}
		for i := 0; i < steps; i++ {
			qi, ti := rng.Intn(popQueues), rng.Intn(len(r.qs)) // popped; pushed or closed
			q := r.qs[qi]
			d := progDelays[rng.Intn(len(progDelays))]
			val := fmt.Sprintf("%s#%d", name, i)
			at := func(qi int) string { return fmt.Sprintf("%d@%v", qi, r.w.Elapsed()+d) }
			switch op := rng.Intn(100); {
			case op < 20:
				r.w.Sleep(d)
				r.logf(name, "sleep", d)
			case op < 35:
				r.logf(name, fmt.Sprint("push ", ti), r.push(name, ti, val))
			case op < 45:
				if ti >= popQueues {
					r.servedPushes[at(ti)]++
				}
				r.qs[ti].PushAt(val, Epoch.Add(r.w.Elapsed()+d))
				r.logf(name, fmt.Sprint("pushat ", ti), d)
			case op < 75:
				v, err := q.Pop()
				r.logf(name, fmt.Sprint("pop ", qi), fmt.Sprint(v, " ", err))
			case op < 83:
				r.w.Go(child())
				r.logf(name, "spawn", children)
			case op < 91:
				r.timers = append(r.timers, r.w.AfterFunc(d, child()))
				r.logf(name, "afterfunc", d)
			case op < 98:
				if len(r.timers) > 0 {
					k := rng.Intn(len(r.timers))
					r.logf(name, fmt.Sprint("stop ", k), r.timers[k].Stop())
				}
			default:
				r.qs[ti].Close()
				r.logf(name, fmt.Sprint("close ", ti), "")
			}
		}
		r.logf(name, "exit", "")
	}
}

// push is a process's Push onto queue ti, counting what the generator is
// meant to provoke on served queues: a push that arrives while the queue's
// handler is parked, and several pushes at one instant.
func (r *progRun) push(name string, ti int, val string) error {
	err := r.qs[ti].Push(val)
	if ti >= popQueues && err == nil {
		if r.handling[ti] && name != fmt.Sprint("d", ti) {
			r.parkedPushes++
		}
		r.servedPushes[fmt.Sprintf("%d@%v", ti, r.w.Elapsed())]++
	}
	return err
}

// handler is the daemon serving queue qi. Each value it is handed is logged,
// then up to three steps follow, drawn from the value's place in the
// handler's sequence: sleep, push, spawn a small process, or return early.
// A value a handler pushed (suffix "^") pushes only onto popped queues, so a
// chain of handlers feeding each other ends.
func (r *progRun) handler(qi int) func(any) {
	name, calls := fmt.Sprint("d", qi), 0
	return func(v any) {
		calls++
		id := fmt.Sprintf("%s/%d", name, calls)
		rng := r.rng(id)
		r.logf(name, "handle", v)
		r.handling[qi] = true
		defer func() { r.handling[qi] = false }()
		for i, steps := 0, rng.Intn(4); i < steps; i++ {
			d := progDelays[rng.Intn(len(progDelays))]
			switch op := rng.Intn(100); {
			case op < 35:
				r.w.Sleep(d)
				r.logf(name, "sleep", d)
			case op < 65:
				ti := rng.Intn(len(r.qs))
				if strings.HasSuffix(v.(string), "^") {
					ti %= popQueues
				}
				r.logf(name, fmt.Sprint("push ", ti), r.push(name, ti, fmt.Sprintf("%s#%d^", id, i)))
			case op < 85:
				r.w.Go(r.proc(fmt.Sprintf("%s.%d", id, i), 2))
				r.logf(name, "spawn", i)
			default:
				r.logf(name, "return", i)
				return
			}
		}
		r.logf(name, "handled", "")
	}
}

// runProgram runs the program of (seed, procs, steps) on w to quiescence,
// then closes every queue — releasing the processes parked in Pop to finish
// their programs — and runs to quiescence again. Roots are spawned, served
// queues handed their handlers and queues closed by a process, not by this
// goroutine, so that the program is well defined on any implementation of
// the contract, including one that lets a process start before Wait is
// called.
func runProgram(w world, seed int64, procs, steps int) *progRun {
	r := &progRun{w: w, seed: seed, servedPushes: map[string]int{}, handling: make([]bool, popQueues+servedQueues)}
	for i := 0; i < popQueues+servedQueues; i++ {
		r.qs = append(r.qs, w.NewQueue())
	}
	w.Go(func() {
		for qi := popQueues; qi < len(r.qs); qi++ {
			w.Serve(r.qs[qi], r.handler(qi))
		}
		for i := 0; i < procs; i++ {
			w.Go(r.proc(fmt.Sprint("p", i), steps))
		}
	})
	w.Wait()
	r.logf("main", "quiesced", "")
	w.Go(func() {
		for _, q := range r.qs {
			q.Close()
		}
	})
	w.Wait()
	r.logf("main", "done", "")
	return r
}

// diffSchedulers runs one program on the reference and on the scheduler and
// fails at the first line the two logs disagree on.
func diffSchedulers(t *testing.T, seed int64, procs, steps int) *progRun {
	t.Helper()
	want := runProgram(newRefSched(), seed, procs, steps)
	s := NewScheduler()
	got := runProgram(realWorld{s}, seed, procs, steps)
	for i := 0; i < len(want.log) || i < len(got.log); i++ {
		if i >= len(want.log) || i >= len(got.log) || want.log[i] != got.log[i] {
			from := max(i-5, 0)
			t.Fatalf("seed %d procs %d steps %d: logs diverge at line %d\nreference: %q\nscheduler: %q",
				seed, procs, steps, i, want.log[from:min(i+1, len(want.log))], got.log[from:min(i+1, len(got.log))])
		}
	}
	if s.Pending() != 0 || s.Running() != 0 {
		t.Fatalf("seed %d: scheduler quiesced with %d timers pending, %d processes runnable", seed, s.Pending(), s.Running())
	}
	return got
}

// TestSchedulerMatchesReference is the dispatcher's oracle: seeded random
// process programs — sleeps, pushes, pops, PushAt,
// spawns, AfterFunc and Stop, queue close, served queues whose handlers
// sleep, push, spawn and return early, all crowded onto a handful of
// instants — must log the same (instant, process, op, value) sequence on the
// scheduler as on refSched. The coverage check at the end keeps the
// generator honest: every situation the contract has a rule for must have
// come up.
func TestSchedulerMatchesReference(t *testing.T) {
	seen := map[string]int{}
	lines := 0
	for seed := int64(1); seed <= 150; seed++ {
		r := diffSchedulers(t, seed, 2+int(seed%5), 6+int(seed%19))
		lines += len(r.log)
		seen["push onto a served queue while its handler is parked"] += r.parkedPushes
		for _, n := range r.servedPushes {
			if n > 1 {
				seen["same-instant pushes onto a served queue"]++
			}
		}
		closed := map[string]bool{} // served queues closed, no handle seen since
		instant, ties := "", 0
		for _, l := range r.log {
			f := strings.Fields(l)
			switch {
			case f[2] == "close" && f[3] >= fmt.Sprint(popQueues): // indices are one digit
				closed["d"+f[3]] = true
			case f[2] == "handle" && closed[f[1]]:
				seen["served queue closed with values still buffered"]++
				closed[f[1]] = false
			case f[2] == "pop" && strings.HasSuffix(l, ErrClosed.Error()):
				seen["pop ends on close"]++
			case f[2] == "push" && strings.HasSuffix(l, ErrClosed.Error()):
				seen["push to closed queue"]++
			case f[2] == "stop":
				seen["stop "+f[4]]++
			case f[2] == "start" && strings.Count(f[1], ".") >= 2:
				seen["grandchild runs"]++
			}
			// A run of lines from different processes at one instant is a
			// same-instant tie resolved by ring order.
			if f[0] == instant {
				ties++
			} else {
				instant, ties = f[0], 0
			}
			if ties == 8 {
				seen["eight-line tie at one instant"]++
			}
		}
	}
	for _, want := range []string{
		"pop ends on close", "push to closed queue", "stop true", "stop false",
		"grandchild runs", "eight-line tie at one instant", "push onto a served queue while its handler is parked", "same-instant pushes onto a served queue",
		"served queue closed with values still buffered",
	} {
		if seen[want] < 5 {
			t.Errorf("generator produced %q only %d times over %d log lines", want, seen[want], lines)
		}
	}
	if lines < 10000 {
		t.Errorf("only %d log lines compared; the program generator has gone quiet", lines)
	}
}

// FuzzSchedulerMatchesReference exposes the generator to go test -fuzz: any
// (seed, process count, step budget) must keep the two logs equal.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(12))
	f.Add(int64(-7), uint8(7), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, procs, steps uint8) {
		diffSchedulers(t, seed, 1+int(procs%8), 1+int(steps%32))
	})
}
