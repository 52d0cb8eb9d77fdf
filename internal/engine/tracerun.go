package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// StopRule looks at when the root completed each element so far — times
// since the trace began, ascending — and says whether the trace has seen
// enough, and if so the rate X_0 (root completions per second) it read.
type StopRule func(completions []time.Duration) (rate float64, ok bool)

// TraceRun is the traced drain behind every planner entry point: it
// instantiates g with a fresh collector (replacing opts.Collector) that
// observes opts.FS, drains it, closes it and returns the joined snapshot.
//
// With a nil rule the drain runs to EOF, or to max root elements when max
// is positive, and the snapshot's duration is the run's wall time. With a
// rule (max stays a hard cap), the pipeline is canceled when the rule fires
// — what is in flight in a throw-away trace is dropped, not drained to the
// consumer — and the duration is the time the root's counted completions
// take at the rate the rule read: ops.Analyze's X_0 = C_0/T is then that
// rate, whatever start-up cost and however far a root prefetch ran ahead.
func TraceRun(g *pipeline.Graph, opts Options, machine trace.Machine, max int64, stop StopRule) (*trace.Snapshot, error) {
	if opts.FS == nil {
		return nil, errors.New("engine: Options.FS is required")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// The m of the §A dataset-size rescale, per source and in all. A missing
	// catalog would leave it 0 and silently skew the estimate.
	srcs, err := g.Sources()
	if err != nil {
		return nil, err
	}
	sourceFiles, totalFiles := make(map[string]int, len(srcs)), 0
	for _, n := range srcs {
		cat, err := data.CatalogByName(n.Catalog)
		if err != nil {
			return nil, err
		}
		sourceFiles[n.Name] = cat.NumFiles
		totalFiles += cat.NumFiles
	}
	col, err := trace.NewCollector(g, machine)
	if err != nil {
		return nil, err
	}
	opts.FS.AddObserver(col)
	defer opts.FS.RemoveObserver(col)
	opts.Collector = col
	p, err := New(g, opts)
	if err != nil {
		return nil, err
	}
	defer p.Close() // idempotent: covers the error returns below

	var done []time.Duration
	begin, check, rate := time.Now(), 0, 0.0
	for n := int64(0); max <= 0 || n < max; n++ {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace drain: %w", err)
		}
		p.Recycle(e)
		if stop == nil {
			continue
		}
		if done = append(done, time.Since(begin)); len(done) < check {
			continue
		}
		if r, ok := stop(done); ok {
			rate = r
			p.Cancel()
			break
		}
		// A rule scans a window of the completions: asking it at every one
		// of a stream that never settles is quadratic. Asking 1/16 further
		// along each time settles at most 6 % late.
		check = len(done) + 1 + len(done)/16
	}
	// Close before snapshotting: iterators flush their buffered counter
	// shards on Close.
	if err := p.Close(); err != nil {
		return nil, fmt.Errorf("trace close: %w", err)
	}
	snap := col.Snapshot(0, totalFiles)
	snap.SourceFiles = sourceFiles
	for path := range snap.Files { // §A samples files, not the bytes read of them so far
		if size, err := opts.FS.Stat(path); err == nil {
			snap.Files[path] = size
		}
	}
	if root, err := snap.RootStats(); rate > 0 && err == nil {
		snap.Duration = time.Duration(float64(root.ElementsProduced) / rate * float64(time.Second))
	}
	return snap, nil
}

// Settled is the stop rule of the planning and verifying traces: stop when
// the root's completion rate has stopped moving. Time since the first
// completion is cut in three. The first third is ignored — worker start-up,
// chunk sizes still finding their level, what a throttled device hands out
// free before its token bucket runs dry. X_0 is the least-squares slope of
// completions against time over the other two (no single late completion
// decides it, as it would a count over the window's length), and it must be
// known to settleTolerance/4 standard error, which a stream that comes in
// lumps reaches only over many of them. Each of the two thirds must hold
// settleMinPerThird completions, and their own slopes agree within
// settleTolerance plus twice their standard errors. A stream that keeps
// slowing, or ends before settleMinSpan, never settles: its trace runs to EOF.
func Settled(done []time.Duration) (rate float64, ok bool) {
	n := len(done)
	if n == 0 || done[n-1]-done[0] < settleMinSpan {
		return 0, false
	}
	first, span := done[0], done[n-1]-done[0]
	from := func(t time.Duration) int {
		return sort.Search(n, func(k int) bool { return done[k] >= t })
	}
	i, j := from(first+span/3), from(first+2*span/3)
	if j-i < settleMinPerThird || n-j < settleMinPerThird {
		return 0, false
	}
	rate, se := slope(done, i, n)
	mid, seMid := slope(done, i, j+1)
	end, seEnd := slope(done, j, n)
	// Written so that a NaN (a third whose completions share one instant)
	// settles nothing.
	if !(se <= settleTolerance/4 && math.Abs(mid-end) <= (settleTolerance+2*(seMid+seEnd))*math.Max(mid, end)) {
		return 0, false
	}
	return rate, true
}

// slope fits the completion count against time by least squares over
// done[lo:hi] and returns the rate, per second, and its relative standard
// error.
func slope(done []time.Duration, lo, hi int) (rate, relErr float64) {
	n := float64(hi - lo)
	var mt, mk, stt, stk, skk float64
	for k := lo; k < hi; k++ {
		mt, mk = mt+done[k].Seconds()/n, mk+float64(k)/n
	}
	for k := lo; k < hi; k++ {
		dt, dk := done[k].Seconds()-mt, float64(k)-mk
		stt, stk, skk = stt+dt*dt, stk+dt*dk, skk+dk*dk
	}
	rate = stk / stt
	return rate, math.Sqrt(math.Max(0, skk-rate*stk)/(n-2)/stt) / rate
}
