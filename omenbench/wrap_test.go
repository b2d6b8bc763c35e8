package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/spec"
)

// testEnv is an env whose files live in a test temp dir.
func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 7, rng: newSplitmix(7), dir: t.TempDir()}
}

func noFailures(t *testing.T, e *env) {
	t.Helper()
	if len(e.failures) > 0 {
		t.Fatalf("oracle failures:\n%s", strings.Join(e.failures, "\n"))
	}
}

// TestTimedJournalTransparent journals one serial sweep through a plain
// FileJournal and another through the timing wrapper: the journal files
// and the observables must be byte-identical, the flop counts equal.
func TestTimedJournalTransparent(t *testing.T) {
	s := spec.Default()
	s.Device.Name = "chain"
	s.Grid.NE = 64
	s.Exec.Workers = 1 // serial: records land in task order
	dir := t.TempDir()
	run := func(name string, wrap bool) ([]byte, *localRun, []string) {
		path := filepath.Join(dir, name)
		jnl, err := cluster.OpenFileJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		var tj *timedJournal
		var rows []string
		r, err := timeLocal(context.Background(), s, 0, nil, nil, func(ctx context.Context, b *spec.Built) error {
			opts := b.SweepOptions()
			opts.Journal = jnl
			if wrap {
				tj = &timedJournal{Checkpointer: jnl, rec: NewRecorder("test"), parent: 0}
				opts.Journal = tj
			}
			sw, err := b.Sim.TransmissionResumable(ctx, b.Grid, nil, opts)
			if err == nil {
				rows = sweepRows(sw)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		if wrap && len(tj.latencies()) != s.Grid.NE {
			t.Fatalf("timed %d appends, want %d", len(tj.latencies()), s.Grid.NE)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b, r, rows
	}
	plainJ, plain, plainRows := run("plain.journal", false)
	wrapJ, wrapped, wrapRows := run("wrapped.journal", true)
	if !bytes.Equal(plainJ, wrapJ) {
		t.Fatal("journal files differ with the timing wrapper")
	}
	if plain.d.Flops != wrapped.d.Flops {
		t.Fatalf("flops %d plain, %d wrapped", plain.d.Flops, wrapped.d.Flops)
	}
	if !equalRows(plainRows, wrapRows) {
		t.Fatal("observables differ with the timing wrapper")
	}
}

// TestDistributedWrappersTransparent runs the fabric pass plain and under
// every distributed wrapper (metered listener and worker connections,
// timed journal, timed SweepFunc and OnResult). The pass's own oracle
// requires, both times, observables byte-identical to a serial run, the
// exact serial flop count, and one journal record per task whose payload
// is byte-identical to the serial one.
func TestDistributedWrappersTransparent(t *testing.T) {
	e := testEnv(t)
	s := spec.Default()
	s.Device.Name = "chain"
	s.Grid.NE = 200
	ref, err := serialReference(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	w := &fabricWL{spec: s, ref: ref}
	if _, err := w.run(context.Background(), e, nil); err != nil {
		t.Fatal(err)
	}
	tr := &fabricTrace{rec: NewRecorder("test"), coord: &wireMeter{}, workers: &wireMeter{}}
	if _, err := w.run(context.Background(), e, tr); err != nil {
		t.Fatal(err)
	}
	noFailures(t, e)
	if got := len(tr.journal.latencies()); got != s.Grid.NE {
		t.Fatalf("timed %d journal appends, want %d", got, s.Grid.NE)
	}
	if len(tr.tasks.lag) != s.Grid.NE {
		t.Fatalf("measured %d commit lags, want %d", len(tr.tasks.lag), s.Grid.NE)
	}
	if tr.coord.writes.Load() == 0 || tr.workers.writes.Load() == 0 {
		t.Fatal("wire meters saw no frames")
	}
}

// TestPoolHookTransparent runs a local sweep and a small gate sweep at
// width 1 plain and under the serial tracer's pool hook: the workloads'
// own checks require identical observable digests and flop counts.
func TestPoolHookTransparent(t *testing.T) {
	e := testEnv(t)
	traced := func(rec *Recorder) instrument {
		return func(p *sched.Pool) func() {
			root := rec.Begin("pass", 0)
			p.Hook = newSerialTracer(rec, root).hook
			return func() { rec.End(root) }
		}
	}
	ctx := context.Background()

	sw := &sweepWL{spec: spec.Default()}
	sw.spec.Device.Name = "chain"
	sw.spec.Grid.NE = 64
	if _, err := sw.run(ctx, e, 1, nil); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("test")
	if _, err := sw.run(ctx, e, 1, traced(rec)); err != nil {
		t.Fatal(err)
	}
	if n := countSpans(rec, "transport.energy"); n != 64 {
		t.Fatalf("traced %d energy tasks, want 64", n)
	}

	sc := &scfWL{spec: spec.Default(), order: []int{1, 0}}
	sc.spec.Mode = spec.ModeIV
	sc.spec.Grid.NVG = 2
	if _, _, err := sc.run(ctx, e, 1, nil); err != nil {
		t.Fatal(err)
	}
	rec = NewRecorder("test")
	if _, _, err := sc.run(ctx, e, 1, traced(rec)); err != nil {
		t.Fatal(err)
	}
	noFailures(t, e)
	if n := countSpans(rec, "core.bias"); n != 2 {
		t.Fatalf("traced %d bias tasks, want 2", n)
	}
	if n := countSpans(rec, "poisson.solve"); n != 2 {
		t.Fatalf("traced Poisson time in %d bias tasks, want 2", n)
	}
	// At width 1 every energy task ran inside a bias task.
	for _, sp := range rec.Spans() {
		if sp.Name == "transport.energy" && sp.Parent == 1 {
			t.Fatal("energy task left under the root span")
		}
	}
}

func countSpans(rec *Recorder, name string) int {
	n := 0
	for _, sp := range rec.Spans() {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestAnalyzeSelfTime pins the self-time arithmetic: overlapping
// boundary children count once, program children by their length.
func TestAnalyzeSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a.x", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "a.x", Start: 30 * ms, End: 60 * ms}, // overlaps 2
		{ID: 4, Parent: 2, Name: "b.y", Start: 10 * ms, End: 15 * ms, Source: "program"},
		{ID: 5, Parent: 1, Name: "c.z", Start: 90 * ms, End: 120 * ms}, // clipped at 100
	}
	p := Analyze(spans)
	if got := p.Self[1]; got != 40*ms {
		t.Fatalf("root self %v, want 40ms", got)
	}
	if got := p.Self[2]; got != 25*ms {
		t.Fatalf("child self %v, want 25ms", got)
	}
	if got := p.Unattributed(1); got != 0.4 {
		t.Fatalf("unattributed %v, want 0.4", got)
	}
}
