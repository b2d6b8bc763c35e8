package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// sweepNE sizes the sweep workload: every energy is a σ-cache miss, so
// the pass is dominated by the per-energy kernels.
const sweepNE = 100

// sweepWL is the momentum-averaged transmission sweep of the paper's
// sp3d5s* Si nanowire (sinw-full) at the spec defaults. The seed shifts
// the energy window by a fraction of one grid step.
type sweepWL struct {
	spec     spec.RunSpec
	sim      *core.Simulator
	first    *core.TransmissionSweep
	firstDig string
	firstFl  int64
	firstSig [2]int64
	sample   []int // grid indices of the WF↔NEGF cross-check
}

func (w *sweepWL) prepare(ctx context.Context, e *env) error {
	s := spec.Default()
	s.Device.Name = "sinw-full"
	s.Grid.NE = sweepNE
	step := (s.Grid.EMax - s.Grid.EMin) / float64(s.Grid.NE-1)
	off := e.rng.float() * step
	s.Grid.EMin += off
	s.Grid.EMax += off
	w.spec = s
	for i := 0; i < 3; i++ {
		w.sample = append(w.sample, e.rng.intn(s.Grid.NE))
	}
	return s.Validate()
}

// run times one sweep at the given pool width and checks it against the
// run's first pass and the recorded digest.
func (w *sweepWL) run(ctx context.Context, e *env, workers int, ins instrument) (*localRun, error) {
	var sw *core.TransmissionSweep
	r, err := timeLocal(ctx, w.spec, workers, ins, nil, func(ctx context.Context, b *spec.Built) error {
		var err error
		sw, err = b.Sim.TransmissionResumable(ctx, b.Grid, nil, b.SweepOptions())
		return err
	})
	if err != nil {
		return nil, err
	}
	d := newDigest()
	d.floats(sw.Energies...)
	d.floats(sw.T...)
	dig, sig := d.sum(), sigmaLookups(r.d)
	if w.first == nil {
		w.first, w.firstDig, w.firstFl, w.firstSig, w.sim = sw, dig, r.d.Flops, sig, r.b.Sim
		checkRecorded(e, "sweep", w.spec, dig, r.d.Flops)
		if len(sw.Energies) != w.spec.Grid.NE {
			e.failf("sweep: %d of %d energies survived", len(sw.Energies), w.spec.Grid.NE)
		}
	} else if dig != w.firstDig || r.d.Flops != w.firstFl || sig != w.firstSig {
		e.failf("sweep: pass gave digest %s flops %d σ %v, first pass %s flops %d σ %v", dig, r.d.Flops, sig, w.firstDig, w.firstFl, w.firstSig)
	}
	return r, nil
}

func (w *sweepWL) setup(context.Context, *env) (time.Duration, error) {
	return timeSetup(w.spec, 0, nil)
}

func (w *sweepWL) pass(ctx context.Context, e *env) (passResult, error) {
	r, err := w.run(ctx, e, 0, nil)
	if err != nil {
		return passResult{}, err
	}
	tasks := int64(w.spec.Grid.NE * w.spec.Grid.NK)
	return passResult{setup: r.setup, wall: r.wall, cpu: r.cpu, flops: r.d.Flops, attempted: tasks}, nil
}

func (w *sweepWL) traced(ctx context.Context, e *env) (layerMetrics, passResult, error) {
	run := func(ctx context.Context, workers int, ins instrument) (*localRun, error) {
		return w.run(ctx, e, workers, ins)
	}
	t, err := runTracedLocal(ctx, e, "sweep", "sweep", run)
	if err != nil {
		return nil, passResult{}, err
	}
	lm, err := t.metrics(e, "sweep", w.spec.Grid.NK)
	if err != nil {
		return nil, passResult{}, err
	}
	tasks := int64((1 + 2*tracedPairs) * w.spec.Grid.NE * w.spec.Grid.NK)
	return lm, passResult{attempted: tasks}, nil
}

func (w *sweepWL) finish(ctx context.Context, e *env) error {
	if w.first == nil {
		return nil
	}
	es := make([]float64, len(w.sample))
	want := make([]float64, len(w.sample))
	for k, i := range w.sample {
		es[k], want[k] = w.first.Energies[i], w.first.T[i]
	}
	return crossCheck(ctx, e, "sweep", w.sim, nil, es, want)
}
