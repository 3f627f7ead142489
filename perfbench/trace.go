package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"gahitec/internal/obs"
)

// span is one of the benchmark's own timing spans, recorded around each call
// into a layer (set-up, run, grade, audit; submit, wait, fetch). Spans of
// one operation share Op; Parent names the enclosing span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Op     string  `json:"op,omitempty"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
}

// spanLog keeps the benchmark's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its ID (a parent for later spans).
func (l *spanLog) add(name, op string, parent int, start time.Time, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: float64(start.Sub(l.t0).Microseconds()) / 1000,
		Dur:   float64(d.Microseconds()) / 1000,
	})
	return id
}

// finish sets the duration of a span added before its end was known.
func (l *spanLog) finish(id int, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].Dur = float64(d.Microseconds()) / 1000
}

// write stores the spans as NDJSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
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

// layers accumulates per-layer work and busy time from obs NDJSON traces of
// one or more engine runs.
type layers struct {
	runs       int                // traces folded in
	busy       map[string]float64 // phase -> span seconds
	calls      map[string]float64 // phase -> span count
	wins       map[string]float64 // phase -> successful spans
	backtracks map[string]float64 // phase -> backtracks carried by its spans
	searches   float64            // backtracks of every deterministic search
	evals      float64            // GA fitness evaluations
	faultVecs  float64            // fault x vector pairs graded in-run
	covered    float64            // seconds covered by at least one span
	overlaps   int                // spans partly overlapping a sibling
}

func newLayers() *layers {
	return &layers{
		busy: map[string]float64{}, calls: map[string]float64{},
		wins: map[string]float64{}, backtracks: map[string]float64{},
	}
}

// successful names the outcome that counts toward a phase's yield.
var successful = map[string]string{
	"excite_prop": "success",
	"det_justify": "found",
	"ga_justify":  "found",
	"target":      "detected",
}

// interval is one span on the recorder's clock, in milliseconds.
type interval struct{ start, end float64 }

// fold reads one run's NDJSON trace. Spans listed in skip are counted but
// left out of the covered-time union (the service's end-of-run audit lies
// outside the job's pass time).
func (l *layers) fold(r io.Reader, skip map[string]bool) error {
	var spans []interval
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("trace line: %w", err)
		}
		l.event(ev)
		if ev.Ev == "span" && !skip[ev.Phase] {
			d := float64(ev.DurUS) / 1000
			spans = append(spans, interval{ev.TMS - d, ev.TMS})
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	covered, overlaps := union(spans)
	l.covered += covered / 1000
	l.overlaps += overlaps
	l.runs++
	return nil
}

// addMetrics folds a run's aggregated metrics: the "backtracks" histogram
// counts every deterministic search, aborted ones too, whose spans carry
// no backtrack count.
func (l *layers) addMetrics(m *obs.Metrics) {
	if h := m.Histograms["backtracks"]; h != nil {
		l.searches += h.Sum
	}
}

// event folds one trace event into the phase totals.
func (l *layers) event(ev obs.Event) {
	if ev.Ev != "span" {
		return
	}
	p := ev.Phase
	l.busy[p] += float64(ev.DurUS) / 1e6
	l.calls[p]++
	if ev.Name == successful[p] {
		l.wins[p]++
	}
	l.backtracks[p] += ev.Attrs["backtracks"]
	switch p {
	case "ga_justify":
		l.evals += ev.Attrs["evaluations"]
	case "fault_sim":
		l.faultVecs += ev.Attrs["faults"] * ev.Attrs["vectors"]
	}
}

// nestSlack is how far, in milliseconds, a span's interval on the trace may
// lie from where the span really ran. A trace event carries the time it
// was written, a little after its span ended: the whole interval is shifted
// later by that delay, usually microseconds, more when the host deschedules
// the thread in between. A parent shifted past the start of its first child
// then looks as if it began inside that child.
const nestSlack = 5.0

// union returns the milliseconds covered by at least one interval and the
// number of pairs that partly overlap: one starts inside the other and ends
// after it, each by more than nestSlack. In a serial run spans nest or
// follow one another, so the count must be zero.
func union(spans []interval) (covered float64, overlaps int) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	var cur interval
	open := false
	for i, x := range spans {
		for _, y := range spans[i+1:] {
			if y.start >= x.end-nestSlack {
				break
			}
			if y.start > x.start+nestSlack && y.end > x.end+nestSlack {
				overlaps++
			}
		}
		if !open || x.start > cur.end {
			if open {
				covered += cur.end - cur.start
			}
			cur, open = x, true
			continue
		}
		cur.end = max(cur.end, x.end)
	}
	if open {
		covered += cur.end - cur.start
	}
	return covered, overlaps
}

// merge adds another accumulator's totals.
func (l *layers) merge(o *layers) {
	for _, pair := range []struct{ dst, src map[string]float64 }{
		{l.busy, o.busy}, {l.calls, o.calls}, {l.wins, o.wins}, {l.backtracks, o.backtracks},
	} {
		for k, v := range pair.src {
			pair.dst[k] += v
		}
	}
	l.runs += o.runs
	l.searches += o.searches
	l.evals += o.evals
	l.faultVecs += o.faultVecs
	l.covered += o.covered
	l.overlaps += o.overlaps
}

// perRun returns a phase total averaged over the folded runs.
func (l *layers) perRun(v float64) float64 { return ratio(v, float64(l.runs)) }

// engineLayerMetrics turns the folded traces into the engine-layer
// per-layer metrics. runS is the traced run time per run (hybrid.self_s is
// what the phase spans leave uncovered).
func (l *layers) engineLayerMetrics(m map[string]metric, runS float64) {
	btBusy := l.busy["excite_prop"] + l.busy["det_justify"]
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("atpg.excite_prop_s", l.perRun(l.busy["excite_prop"]), "s")
	put("atpg.excite_prop_calls", l.perRun(l.calls["excite_prop"]), "count")
	put("atpg.excite_prop_yield", ratio(l.wins["excite_prop"], l.calls["excite_prop"]), "ratio")
	put("atpg.excite_prop_backtracks", l.perRun(l.searches-l.backtracks["det_justify"]), "count")
	put("atpg.det_justify_s", l.perRun(l.busy["det_justify"]), "s")
	put("atpg.det_justify_calls", l.perRun(l.calls["det_justify"]), "count")
	put("atpg.det_justify_yield", ratio(l.wins["det_justify"], l.calls["det_justify"]), "ratio")
	put("atpg.det_justify_backtracks", l.perRun(l.backtracks["det_justify"]), "count")
	put("atpg.backtracks_per_s", ratio(l.searches, btBusy), "1/s")
	put("justify.ga_s", l.perRun(l.busy["ga_justify"]), "s")
	put("justify.ga_calls", l.perRun(l.calls["ga_justify"]), "count")
	put("justify.ga_yield", ratio(l.wins["ga_justify"], l.calls["ga_justify"]), "ratio")
	put("ga.evaluations", l.perRun(l.evals), "count")
	put("ga.evals_per_s", ratio(l.evals, l.busy["ga_justify"]), "1/s")
	put("hybrid.target_s", l.perRun(l.busy["target"]), "s")
	put("hybrid.targeted", l.perRun(l.calls["target"]), "count")
	put("hybrid.self_s", runS-l.perRun(l.covered), "s")
	put("faultsim.inrun_s", l.perRun(l.busy["verify"]+l.busy["fault_sim"]), "s")
	put("faultsim.faultvec_per_s", ratio(l.faultVecs, l.busy["fault_sim"]), "1/s")
}
