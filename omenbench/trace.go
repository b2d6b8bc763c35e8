package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval recorded at a layer boundary. Start and End
// are offsets from the recorder's epoch. Source says where the interval
// came from: "boundary" spans are timed by the benchmark around a call
// into the layer; "program" spans carry a duration the program itself
// recorded (perf phase timers) where no outside boundary exists, laid
// out contiguously inside their parent.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: no parent (a root)
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Source string        `json:"source"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Layer is the module the span belongs to: the name up to its first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder keeps spans in memory for one traced run; nothing is written
// until WriteFile. It is safe for concurrent use.
type Recorder struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts a recorder whose spans all carry the run ID.
func NewRecorder(run string) *Recorder {
	return &Recorder{run: run, epoch: time.Now()}
}

// Add records a boundary span and returns its ID.
func (r *Recorder) Add(name string, parent int, start, end time.Time) int {
	return r.add(name, parent, start.Sub(r.epoch), end.Sub(r.epoch), "boundary")
}

// Begin opens a boundary span now, so children can name it as their
// parent before it ends; End closes it.
func (r *Recorder) Begin(name string, parent int) int {
	at := time.Since(r.epoch)
	return r.add(name, parent, at, at, "boundary")
}

// End closes a span opened by Begin.
func (r *Recorder) End(id int) {
	at := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = at
	r.mu.Unlock()
}

// SetParent re-parents spans whose parent was not known when they were
// recorded (a pool hook sees an energy task end before the bias task
// enclosing it does).
func (r *Recorder) SetParent(ids []int, parent int) {
	r.mu.Lock()
	for _, id := range ids {
		r.spans[id-1].Parent = parent
	}
	r.mu.Unlock()
}

// AddProgram records program-recorded durations as children of parent,
// written back to back from the parent's start: only their lengths are
// known, and Analyze uses only those. Zero durations are skipped.
func (r *Recorder) AddProgram(parent int, names []string, durs []time.Duration) {
	r.mu.Lock()
	at := r.spans[parent-1].Start
	r.mu.Unlock()
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		r.add(names[i], parent, at, at+d, "program")
		at += d
	}
}

func (r *Recorder) add(name string, parent int, start, end time.Duration, source string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name, Start: start, End: end, Source: source})
	return id
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Profile is the self-time view of a span set.
type Profile struct {
	// Self is each span's duration minus the part its children account
	// for (overlapping boundary children count once; see covered).
	Self map[int]time.Duration
	// ByName sums self time per span name.
	ByName map[string]time.Duration
	spans  map[int]Span
}

// Analyze computes self times.
func Analyze(spans []Span) Profile {
	p := Profile{
		Self:   make(map[int]time.Duration, len(spans)),
		ByName: make(map[string]time.Duration),
		spans:  make(map[int]Span, len(spans)),
	}
	kids := make(map[int][]Span)
	for _, s := range spans {
		p.spans[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range spans {
		self := s.Dur() - covered(s, kids[s.ID])
		p.Self[s.ID] = self
		p.ByName[s.Name] += self
	}
	return p
}

// covered returns how much of the parent's interval its children
// account for: the union of the boundary children's intervals clipped to
// the parent's, plus the lengths of the program-recorded children (which
// ran serially inside the parent but outside its boundary children, at
// positions the program did not record), capped at the parent's length.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	var program time.Duration
	for _, k := range kids {
		if k.Source == "program" {
			program += k.Dur()
			continue
		}
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return min(total+program, parent.Dur())
}

// Unattributed is the share of the root span's duration that no child
// span covers: 1 − Σ self(children)/wall for a serial trace.
func (p Profile) Unattributed(root int) float64 {
	s, ok := p.spans[root]
	if !ok || s.Dur() <= 0 {
		return 0
	}
	return float64(p.Self[root]) / float64(s.Dur())
}

// Seconds is the summed self time of a span name, in seconds.
func (p Profile) Seconds(name string) float64 { return p.ByName[name].Seconds() }

// String summarizes self time per layer, largest first — the text the
// traced run prints to standard error.
func (p Profile) String() string {
	byLayer := make(map[string]time.Duration)
	for name, d := range p.ByName {
		byLayer[Span{Name: name}.Layer()] += d
	}
	names := make([]string, 0, len(byLayer))
	for n := range byLayer {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byLayer[names[i]] > byLayer[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-14s %10.4f s self\n", n, byLayer[n].Seconds())
	}
	return b.String()
}
