package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/transport"
)

// The two local workloads, sweep and scf, call core directly on a
// spec.Build result. Their traced passes B and C run the pool at width 1,
// so the pool hook sees tasks in execution order and self times add up to
// the traced wall time.

// instrument attaches instrumentation to a built pool right before the
// timed call and returns the function that ends it right after; nil
// runs uninstrumented.
type instrument func(p *sched.Pool) (done func())

// localRun is one timed call of a local workload.
type localRun struct {
	b           *spec.Built
	d           perf.Snapshot
	setup, wall time.Duration
	cpu         time.Duration
}

// buildLocal builds the spec at the given pool width (0: the spec's own)
// and runs the workload's further set-up on the result.
func buildLocal(s spec.RunSpec, workers int, extraSetup func(*spec.Built) error) (*spec.Built, error) {
	if workers > 0 {
		s.Exec.Workers = workers
	}
	b, err := spec.Build(s)
	if err != nil {
		return nil, err
	}
	if extraSetup != nil {
		if err := extraSetup(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// timeSetup times one set-up of an untraced local pass at the given pool
// width.
func timeSetup(s spec.RunSpec, workers int, extraSetup func(*spec.Built) error) (time.Duration, error) {
	t0 := time.Now()
	_, err := buildLocal(s, workers, extraSetup)
	return time.Since(t0), err
}

// timeLocal builds the spec at the given pool width (0: the spec's own)
// and times call on the result.
func timeLocal(ctx context.Context, s spec.RunSpec, workers int, ins instrument, extraSetup func(*spec.Built) error, call func(context.Context, *spec.Built) error) (*localRun, error) {
	t0 := time.Now()
	b, err := buildLocal(s, workers, extraSetup)
	if err != nil {
		return nil, err
	}
	r := &localRun{b: b, setup: time.Since(t0)}
	before := perf.TakeSnapshot()
	done := func() {}
	if ins != nil {
		done = ins(b.Pool)
	}
	c1, t1 := processCPU(), time.Now()
	err = call(ctx, b)
	r.wall, r.cpu = time.Since(t1), processCPU()-c1
	done()
	r.d = perf.TakeSnapshot().Diff(before)
	return r, err
}

// passFunc runs one checked pass of a local workload at the given pool
// width (0: the spec's own) under optional instrumentation.
type passFunc func(ctx context.Context, workers int, ins instrument) (*localRun, error)

// tracedPairs is how many untraced/traced width-1 pass pairs a local
// traced run alternates: the tracing overhead is a small difference of
// two noisy walls, so it is taken over their sums.
const tracedPairs = 2

// tracedLocal is the traced run of a local workload: pass A at the
// spec's width with only a busy-time hook on the outer phase, then
// tracedPairs pairs of B (width 1, untraced) and C (width 1, under the
// serial tracer), in alternating order. The per-layer figures come from
// the last C.
type tracedLocal struct {
	a, c     *localRun
	bWall    time.Duration // Σ over the B passes
	cWall    time.Duration // Σ over the C passes
	rec      *Recorder
	root     int
	st       *serialTracer
	busy     time.Duration
	rt0, rt1 runtimeSample
}

func runTracedLocal(ctx context.Context, e *env, name, outer string, run passFunc) (*tracedLocal, error) {
	t := &tracedLocal{}
	var busy atomic.Int64
	var err error
	t.a, err = run(ctx, 0, func(p *sched.Pool) func() {
		p.Hook = busyHook(outer, &busy)
		return func() {}
	})
	if err != nil {
		return nil, err
	}
	t.busy = time.Duration(busy.Load())
	untraced := func() error {
		b, err := run(ctx, 1, nil)
		if err == nil {
			t.bWall += b.wall
		}
		return err
	}
	traced := func() error {
		t.rec = NewRecorder(fmt.Sprintf("%s-seed%d", name, e.seed))
		c, err := run(ctx, 1, func(p *sched.Pool) func() {
			t.rt0 = sampleRuntime()
			t.root = t.rec.Begin("pass", 0)
			t.st = newSerialTracer(t.rec, t.root)
			p.Hook = t.st.hook
			return func() {
				t.rec.End(t.root)
				t.rt1 = sampleRuntime()
			}
		})
		if err == nil {
			t.c = c
			t.cWall += c.wall
		}
		return err
	}
	for i := 0; i < tracedPairs; i++ {
		// Alternate which pass of a pair runs first, so that a drift in
		// the machine's speed does not read as tracing overhead.
		first, second := untraced, traced
		if i%2 == 1 {
			first, second = traced, untraced
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// metrics fills the per-layer metrics common to both local workloads.
// assemblies is how many Hamiltonians the pass assembled.
func (t *tracedLocal) metrics(e *env, name string, assemblies int) (layerMetrics, error) {
	prof := Analyze(t.rec.Spans())
	writeTrace(e, name, t.rec, prof)
	lm := layerMetrics{}
	lm.counterLayers(t.c.d, t.rt0, t.rt1, t.st.energyTasks)
	lm["wavefunction.solve_s"] = prof.Seconds("wavefunction.solve")
	if w := t.st.energyWall; w > 0 {
		lm["wavefunction.gflops"] = float64(t.st.energyFlops) / w.Seconds() / 1e9
	}
	lm["transport.energy_s"] = prof.Seconds("transport.energy")
	lm["poisson.solve_s"] = prof.Seconds("poisson.solve")
	width := t.a.b.Pool.Workers()
	lm["sched.busy_frac"] = t.busy.Seconds() / (float64(width) * t.a.wall.Seconds())
	lm["sched.speedup_1w"] = t.bWall.Seconds() / tracedPairs / t.a.wall.Seconds()
	asm, err := assembleSeconds(t.a.b.Sim)
	if err != nil {
		return nil, err
	}
	lm["tb.assemble_s"] = asm * float64(assemblies)
	lm["perf.unattributed_frac"] = prof.Unattributed(t.root)
	lm["trace.overhead_frac"] = t.cWall.Seconds()/t.bWall.Seconds() - 1
	lm["cluster.model_rate_ratio"] = modelRatio(t.a.d.Flops, t.a.wall, width)
	return lm, nil
}

// assembleSeconds times one Hamiltonian assembly of the device through
// the public core.Simulator.Hamiltonian (median of three). The
// assemblies inside a pass have no outside boundary, so tb.assemble_s is
// this calibration times the pass's assembly count — a model, labeled as
// such in README.md.
func assembleSeconds(sim *core.Simulator) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := sim.Hamiltonian(nil, 0); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// digest hashes float64 values bit-exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// crossCheck recomputes the transmission of one Hamiltonian at the
// given energies with the NEGF/RGF formalism and compares it with the
// wave-function values want (nil: computed here with a fresh WF engine).
// Two independent formalisms must agree to 1e-6 relative.
func crossCheck(ctx context.Context, e *env, what string, sim *core.Simulator, pot, energies, want []float64) error {
	h, err := sim.Hamiltonian(pot, 0)
	if err != nil {
		return err
	}
	if want == nil {
		wf, err := transport.NewEngine(h, transport.Config{Formalism: transport.WaveFunction, Workers: 1})
		if err != nil {
			return err
		}
		if want, err = wf.Transmissions(ctx, energies); err != nil {
			return err
		}
	}
	gf, err := transport.NewEngine(h, transport.Config{Formalism: transport.NEGFRGF, Workers: 1})
	if err != nil {
		return err
	}
	tg, err := gf.Transmissions(ctx, energies)
	if err != nil {
		return err
	}
	for i := range want {
		if math.Abs(want[i]-tg[i]) > 1e-6*(1+math.Abs(tg[i])) {
			e.failf("%s: WF and NEGF disagree at E=%g: %.12g vs %.12g", what, energies[i], want[i], tg[i])
		}
	}
	return nil
}

// sigmaLookups is a pass's σ-cache misses and hits + coalesced lookups.
// Which lookups hit and which coalesce onto an in-flight miss depends on
// scheduling; the sum does not, so only the sum is compared.
func sigmaLookups(d perf.Snapshot) [2]int64 {
	c := d.Counters
	return [2]int64{c["sigma-misses"], c["sigma-hits"] + c["sigma-coalesced"]}
}

// checkRecorded compares a pass of spec s with the digest recorded for
// it in oracle.go. Specs without a record are not checked, except at the
// default seed, where the workload's spec must have one.
func checkRecorded(e *env, name string, s spec.RunSpec, dig string, flops int64) {
	want, ok := recorded[s.SpecHash()]
	if !ok {
		if e.seed == defaultSeed {
			e.failf("%s: no recorded digest for spec %s (this pass: digest %s, flops %d)", name, s.SpecHash(), dig, flops)
		}
		return
	}
	if dig != want.digest || flops != want.flops {
		e.failf("%s: digest %s flops %d, recorded %s flops %d", name, dig, flops, want.digest, want.flops)
	}
}
