package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// StopRule looks at a trace's progress stream so far — samples in the order
// they were taken, At ascending — and says whether the trace has seen enough,
// and if so the rate (units per second) it read.
type StopRule func(progress []trace.Sample) (rate float64, ok bool)

// progress is the stream a traced pipeline keeps for its stop rule; a
// pipeline without a rule has none. Root completions are the coarsest thing
// a pipeline does: sixteen examples 1 ms apart make one 16 ms minibatch, and
// a rule shown only the minibatches waits sixteen times longer than the rate
// takes to show. So the stage that makes the stream coarse records it before
// it does: install walks down from the root through the stages that hand on
// every element they pull (prefetch, cache, repeat, take, shuffle) to the
// first that does not — a Batch. Where there is no such stage (a Zip, a
// Concat, a bare chain), or a warm cache above it serves the root so it
// records nothing, TraceRun feeds the root's completions into the same
// stream, one element each.
//
// The stage records once per lump it is handed, not per element: receivers
// feeding its segment raise a flag when they take a chunk off their edge, an
// inline Map or Filter when it applies a run (one nil check in a pipeline
// without a rule), and a tap at the stage's input, seeing the flag, appends
// (now, elements pulled before this lump). What is counted is the stage's
// own input, so a Filter below it is already in the rate, and X_0 is that
// rate over the elements the stage pulls per output. Outer-parallel replicas
// each have a tap and pool their samples here, under mu, taken once per
// lump; the clock is read inside it, so At ascends whichever replica records.
//
// The rule is asked in one place, lump, on whichever goroutine records, over
// the samples in place. It scans its stream, so asking at every lump of one
// that never settles is quadratic: it is asked again when the stream is 1/16
// longer, and settles at most 6 % late. When it fires, lump cuts the trace
// there: the pipeline is canceled, the stream stops, and what the stage had
// pulled before that lump is the cut the analysis reads (TraceRun).
type progress struct {
	begin  time.Time // the trace's: At counts from it
	stop   StopRule
	cancel func() // the pipeline's Cancel

	mu      sync.Mutex
	stage   string // the recording stage's name; "" when root completions feed the stream
	samples []trace.Sample
	n       int64   // elements the stage's replicas have pulled, as of their last lumps
	check   int     // the rule is next asked when the stream is this long
	rate    float64 // what the rule read when it fired, elements per second
	cut     bool    // the rule fired: the stream is frozen at its cut
	ended   bool    // the drain is over: nothing more is recorded or asked
}

// locate names the recording stage of g, if it has one.
func (pr *progress) locate(g *pipeline.Graph, byName map[string]pipeline.Node) {
	pr.stage = ""
	for n := byName[g.Output]; ; n = byName[n.Input] {
		switch n.Kind {
		case pipeline.KindPrefetch, pipeline.KindCache, pipeline.KindRepeat, pipeline.KindTake, pipeline.KindShuffle:
		case pipeline.KindBatch:
			pr.stage = n.Name
			return
		default:
			return
		}
	}
}

// lump records that a replica of the stage was handed a lump, having pulled
// pulled elements since its last, asks the rule, and cuts the trace when it
// fires.
func (pr *progress) lump(pulled int64) {
	pr.mu.Lock()
	fired := pr.stage != "" && pr.record(pulled)
	pr.mu.Unlock()
	if fired {
		pr.cancel()
	}
}

// completed records one root completion, when root completions are the
// stream: the graph has no recording stage, or it had recorded nothing by
// the first completion. It reports whether the trace is cut.
func (pr *progress) completed() bool {
	pr.mu.Lock()
	if len(pr.samples) == 0 {
		pr.stage = ""
	}
	fired := pr.stage == "" && pr.record(1)
	cut := pr.cut
	pr.mu.Unlock()
	if fired {
		pr.cancel()
	}
	return cut
}

// record appends a sample and asks the rule if it is due; it reports whether
// this sample cut the trace. pr.mu is held.
func (pr *progress) record(pulled int64) bool {
	if pr.cut || pr.ended {
		return false
	}
	pr.n += pulled
	pr.samples = append(pr.samples, trace.Sample{At: time.Since(pr.begin), N: pr.n})
	if len(pr.samples) < pr.check {
		return false
	}
	if pr.rate, pr.cut = pr.stop(pr.samples); !pr.cut {
		pr.check = len(pr.samples) + 1 + len(pr.samples)/16
	}
	return pr.cut
}

// isCut reports whether the rule has cut the trace.
func (pr *progress) isCut() bool {
	pr.mu.Lock()
	cut := pr.cut
	pr.mu.Unlock()
	return cut
}

// end stops the stream — a replica still running until Close records
// nothing more — and says in run how the drain ended. When the rule cut it,
// that is the recording stage, and the elements it had pulled before the
// cutting lump. end returns the rate the rule read, in those per second,
// and the stream it was shown: to the cut, or all of it.
func (pr *progress) end(run *trace.Run) (rate float64, stream []trace.Sample) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.ended = true
	run.Samples, run.Settled = len(pr.samples), pr.cut
	if pr.cut {
		run.Stage, run.Cut = pr.stage, pr.samples[len(pr.samples)-1].N
	}
	return pr.rate, pr.samples
}

// progressTap sits at the recording stage's input, one per replica. lump is
// raised by the receivers of its segment, which run on the goroutine that
// pulls. A pull never spans two chunks, so a run the lump came with belongs
// to it whole, and a run is counted with one add.
type progressTap struct {
	pr     *progress
	child  stage
	lump   bool
	pulled int64
}

func (t *progressTap) pull(dst []item) (int, error) {
	n, err := t.child.pull(dst)
	if n > 0 && t.lump {
		t.lump = false
		t.pr.lump(t.pulled)
		t.pulled = 0
	}
	t.pulled += int64(n)
	return n, err
}

func (t *progressTap) Close() error { return t.child.Close() }

// TraceRun is the traced drain behind every planner entry point: it
// instantiates g with a fresh collector (replacing opts.Collector) that
// observes opts.FS, drains it, closes it and returns the joined snapshot,
// whose Run says what the drain cost.
//
// With a nil rule the drain runs to EOF, or to max root elements when max
// is positive, and the snapshot's duration is the run's wall time. With a
// rule (max stays a hard cap) the pipeline keeps a progress stream and the
// rule is asked as it grows (progress). When it fires the trace is cut at
// that lump: the pipeline is canceled — what is in flight in a throw-away
// trace is dropped, not drained to the consumer — and nothing the consumer
// is handed after the cut counts, not even the partial minibatch a Batch
// canceled mid-fill delivers. Run then records the cut: the elements the
// recording stage had pulled before the cutting lump (root completions when
// the root's completions were the stream). The duration is the time the
// cut's C_0 = cut ÷ batch size root completions (trace.Snapshot.Completions)
// take at the rate the rule read, so ops.Analyze's X_0 = C_0/T is that rate,
// whatever start-up cost, however far a root prefetch ran ahead and however
// many minibatches the cut fell between. Such a trace costs its start-up
// plus what the rule needs to see (Settled: settleWarmup and two
// settleMinHalf for a steady stream), whatever the batch size. The snapshot
// keeps the slice the rule read (Snapshot.Progress): to the cut when it
// fired, all of it when it never did, and the cut replays from it. With
// opts.Spin the snapshot's Machine records the cores the modeled CPU could
// burn on (SchedulableCores): the one fact of this process a plan's
// prediction reads.
func TraceRun(g *pipeline.Graph, opts Options, machine trace.Machine, max int64, stop StopRule) (*trace.Snapshot, error) {
	begin := time.Now()
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
	var pr *progress
	if stop != nil {
		pr = &progress{begin: begin, stop: stop, samples: make([]trace.Sample, 0, 1024)}
	}
	p, err := newPipeline(g, opts, pr)
	if err != nil {
		return nil, err
	}
	defer p.Close() // idempotent: covers the error returns below
	if pr != nil {
		pr.cancel = p.Cancel
	}

	var run trace.Run
	for max <= 0 || run.RootCompletions < max {
		e, err := p.Next()
		if pr != nil && pr.isCut() { // the element, if any, came after the cut
			if err == nil {
				p.Recycle(e)
			}
			break
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace drain: %w", err)
		}
		p.Recycle(e)
		run.RootCompletions++
		if pr != nil && pr.completed() {
			break
		}
	}
	var rate float64
	var stream []trace.Sample
	if pr != nil {
		rate, stream = pr.end(&run)
	}
	// Close before snapshotting: iterators flush their buffered counter
	// shards on Close.
	if err := p.Close(); err != nil {
		return nil, fmt.Errorf("trace close: %w", err)
	}
	run.Seconds = time.Since(begin).Seconds()
	snap := col.Snapshot(0, totalFiles)
	snap.SourceFiles = sourceFiles
	snap.Run, snap.Progress = &run, stream
	if opts.Spin {
		snap.Machine.SchedulableCores = SchedulableCores()
	}
	for path := range snap.Files { // §A samples files, not the bytes read of them so far
		if size, err := opts.FS.Stat(path); err == nil {
			snap.Files[path] = size
		}
	}
	if run.Settled {
		snap.Duration = time.Duration(float64(run.Cut) / rate * float64(time.Second))
	}
	return snap, nil
}

// SchedulableCores is how many goroutines of this process can burn CPU at
// once: the host's cores, and no more than GOMAXPROCS of them.
func SchedulableCores() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// Settled is the stop rule of the planning traces: stop when the rate of the
// progress stream has stopped moving. The samples before the window are
// ignored — worker start-up, chunk sizes still finding their level, what a
// throttled device hands out free before its token bucket runs dry. The
// window is cut in two halves in time, each at least settleMinHalf long and
// holding settleMinPerHalf samples. The rate is the least-squares slope of
// the count against time over the window (no single late sample decides it,
// as it would a count over the window's length), and it must be known to
// settleTolerance/4 standard error, which a stream that comes in lumps
// reaches only over many of them.
//
// Two windows are tried. The early one starts at the first sample
// settleWarmup in, so a stream that is steady from its first milliseconds is
// cut as soon as its halves agree; it skips so little that a slow start may
// still be in it, so its halves must agree within settleTolerance/2
// outright. Failing that, the window is the last two thirds of the time
// since the first sample, and its halves' slopes must agree within
// settleTolerance plus twice their standard errors. A stream that keeps
// slowing, or ends before warm-up and window have passed, never settles: its
// trace runs to EOF.
func Settled(s []trace.Sample) (rate float64, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	first, span := s[0].At, s[n-1].At-s[0].At
	if i := sort.Search(n, func(k int) bool { return s[k].At >= first+settleWarmup }); i < n {
		if rate, ok := settledOver(s, s[i].At, settleTolerance/2, 0); ok {
			return rate, true
		}
	}
	return settledOver(s, first+span/3, settleTolerance, 2)
}

// settledOver tests the window of s from time from on, halved in time: its
// halves' slopes must agree within tol plus widen times their standard errors.
func settledOver(s []trace.Sample, from time.Duration, tol, widen float64) (rate float64, ok bool) {
	n := len(s)
	half := (s[n-1].At - from) / 2
	if half < settleMinHalf {
		return 0, false
	}
	at := func(t time.Duration) int {
		return sort.Search(n, func(k int) bool { return s[k].At >= t })
	}
	i, j := at(from), at(from+half)
	if j-i < settleMinPerHalf || n-j < settleMinPerHalf {
		return 0, false
	}
	rate, se := slope(s[i:])
	mid, seMid := slope(s[i : j+1])
	end, seEnd := slope(s[j:])
	// Written so that a NaN (a half whose samples share one instant)
	// settles nothing.
	if !(se <= settleTolerance/4 && math.Abs(mid-end) <= (tol+widen*(seMid+seEnd))*math.Max(mid, end)) {
		return 0, false
	}
	return rate, true
}

// slope fits the samples' count against their time by least squares and
// returns the rate, per second, and its relative standard error.
func slope(s []trace.Sample) (rate, relErr float64) {
	n := float64(len(s))
	var mt, mk, stt, stk, skk float64
	for _, x := range s {
		mt, mk = mt+x.At.Seconds()/n, mk+float64(x.N)/n
	}
	for _, x := range s {
		dt, dk := x.At.Seconds()-mt, float64(x.N)-mk
		stt, stk, skk = stt+dt*dt, stk+dt*dk, skk+dk*dk
	}
	rate = stk / stt
	return rate, math.Sqrt(math.Max(0, skk-rate*stk)/(n-2)/stt) / rate
}
