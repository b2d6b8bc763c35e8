package main

// recordedRun pins the observables digest and exact flop count of one
// spec of a local workload.
type recordedRun struct {
	digest string
	flops  int64
}

// recorded maps spec hashes to their recorded oracle: the sweep spec at
// the default seed (its seed moves the energy window) and the scf spec
// (the same for every seed; the seed only reorders the gate ladder). Any
// change to these numbers is a change to what the program computes.
var recorded = map[string]recordedRun{
	// sweep, seed 1: sinw-full, nE 100, window shifted by a fraction of a step.
	"58410680cfca522589a4726635e8bc2e93f2f49216d25e7bec50cc8c5708e1a3": {digest: "922fd7bb739223a4", flops: 47787305950},
	// scf: the spec `omen -mode iv` runs by default.
	"eb559cd84593c66a058bb7541a853470a7475c801fbc03eac9fe3b5b9e77d335": {digest: "25e2d47713b7aed9", flops: 27078311942},
}
