package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// scfWL is the self-consistent gate sweep of agnr7 (iv mode) at the spec
// defaults, with the electrostatics omen's iv mode applies to its ribbon
// devices. The seed permutes the order the gate ladder is handed to
// GateSweep. Each point's result does not depend on that order, so the
// work and the observables are the same for every seed (shifting the
// ladder instead changed SCF iteration counts, and the work by up to 5%).
type scfWL struct {
	spec     spec.RunSpec
	order    []int // ladder index of each submitted gate voltage
	sim      *core.Simulator
	first    []core.IVPoint // in ladder order
	firstDig string
	firstFl  int64
	firstSig [2]int64
	vgPick   int       // gate point of the WF↔NEGF cross-check
	eFrac    []float64 // its energies, as offsets above the band edge
}

func (w *scfWL) prepare(ctx context.Context, e *env) error {
	s := spec.Default()
	s.Mode = spec.ModeIV
	w.spec = s
	w.order = e.rng.perm(s.Grid.NVG)
	w.vgPick = e.rng.intn(s.Grid.NVG)
	for i := 0; i < 3; i++ {
		w.eFrac = append(w.eFrac, e.rng.float())
	}
	return s.Validate()
}

// newFET is the FET omen's iv mode builds: the CLI's ribbon
// electrostatics and the spec's σ-cache shared across the sweep.
func newFET(b *spec.Built) (*core.FET, error) {
	fet, err := core.NewFET(b.Sim)
	if err != nil {
		return nil, err
	}
	fet.Lambda = 1.2
	fet.SourceDoping = 0.1
	fet.GateStart, fet.GateEnd = 0.3, 0.7
	fet.Cache = b.Cache
	return fet, nil
}

// run times one gate sweep at the given pool width and checks it
// against the run's first pass and the recorded digest.
func (w *scfWL) run(ctx context.Context, e *env, workers int, ins instrument) (*localRun, []core.IVPoint, error) {
	var fet *core.FET
	var pts []core.IVPoint
	r, err := timeLocal(ctx, w.spec, workers, ins, func(b *spec.Built) (err error) {
		fet, err = newFET(b)
		return err
	}, func(ctx context.Context, b *spec.Built) error {
		vgs := make([]float64, len(w.order))
		for i, j := range w.order {
			vgs[i] = b.GateGrid[j]
		}
		got, err := fet.GateSweep(ctx, vgs, w.spec.Grid.VDrain)
		if err != nil {
			return err
		}
		pts = make([]core.IVPoint, len(got))
		for i, j := range w.order {
			pts[j] = got[i]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	d := newDigest()
	for _, p := range pts {
		conv := 0.0
		if p.Converged {
			conv = 1
		}
		d.floats(p.VGate, p.VDrain, p.Current, float64(p.Iterations), conv)
		d.floats(p.Potential...)
	}
	dig, sig := d.sum(), sigmaLookups(r.d)
	if w.first == nil {
		w.first, w.firstDig, w.firstFl, w.firstSig, w.sim = pts, dig, r.d.Flops, sig, r.b.Sim
		checkRecorded(e, "scf", w.spec, dig, r.d.Flops)
	} else if dig != w.firstDig || r.d.Flops != w.firstFl || sig != w.firstSig {
		e.failf("scf: pass gave digest %s flops %d σ %v, first pass %s flops %d σ %v", dig, r.d.Flops, sig, w.firstDig, w.firstFl, w.firstSig)
	}
	return r, pts, nil
}

func (w *scfWL) setup(context.Context, *env) (time.Duration, error) {
	return timeSetup(w.spec, 0, func(b *spec.Built) error {
		_, err := newFET(b)
		return err
	})
}

func (w *scfWL) pass(ctx context.Context, e *env) (passResult, error) {
	r, _, err := w.run(ctx, e, 0, nil)
	if err != nil {
		return passResult{}, err
	}
	n := int64(w.spec.Grid.NVG)
	return passResult{setup: r.setup, wall: r.wall, cpu: r.cpu, flops: r.d.Flops, attempted: n}, nil
}

func (w *scfWL) traced(ctx context.Context, e *env) (layerMetrics, passResult, error) {
	var iters int
	run := func(ctx context.Context, workers int, ins instrument) (*localRun, error) {
		r, pts, err := w.run(ctx, e, workers, ins)
		iters = 0
		for _, p := range pts {
			iters += p.Iterations
		}
		return r, err
	}
	t, err := runTracedLocal(ctx, e, "scf", "bias", run)
	if err != nil {
		return nil, passResult{}, err
	}
	// Each gate point assembles one Hamiltonian per SCF iteration plus
	// one for its final current grid.
	lm, err := t.metrics(e, "scf", iters+w.spec.Grid.NVG)
	if err != nil {
		return nil, passResult{}, err
	}
	prof := Analyze(t.rec.Spans())
	// Bias-task wall minus its energy tasks: Poisson included.
	lm["core.bias_self_s"] = prof.Seconds("core.bias") + prof.Seconds("poisson.solve")
	lm["core.scf_iters"] = float64(iters)
	return lm, passResult{attempted: int64((1 + 2*tracedPairs) * w.spec.Grid.NVG)}, nil
}

func (w *scfWL) finish(ctx context.Context, e *env) error {
	if w.first == nil {
		return nil
	}
	// Cross-check the solvers on one converged device: the seeded gate
	// point's potential, at seeded energies within 0.5 eV above the
	// conduction-band edge.
	p := w.first[w.vgPick]
	atoms := w.sim.Built.Structure.Atoms
	pot := make([]float64, len(atoms))
	for i, a := range atoms {
		pot[i] = p.Potential[a.Layer]
	}
	_, ec, err := w.sim.ConductionBandEdge(-5, 10)
	if err != nil {
		return err
	}
	var es []float64
	for _, f := range w.eFrac {
		es = append(es, ec+0.5*f)
	}
	return crossCheck(ctx, e, "scf", w.sim, pot, es, nil)
}
