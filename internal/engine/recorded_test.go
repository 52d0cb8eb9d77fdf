package engine

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"plumber/internal/trace"
)

// The corpus: snapshots of real traced drains, with the streams their rules
// were shown. A test that reads one records it: with PLUMBER_RECORD_PROGRESS
// set, the first test of a process to ask for a name traces and writes it.
//
//	PLUMBER_RECORD_PROGRESS=1 go test -p 1 -count=1 . ./internal/engine
//
// (-p 1: a package built beside a recording slows the stream it records)
// regenerates it; commit every file. "<shape>-<k>" are whole passes under a
// rule that never fires, with their whole streams: the root package's
// bounded vision shapes and this package's throttled chain ("slow"). A
// recording the settle rule misreads is a bug in the rule, not in it.
const snapshotDir = "testdata/snapshots"

var recordedOnce sync.Map // name -> struct{}: recorded by this process

// recorded returns the corpus snapshot name; with PLUMBER_RECORD_PROGRESS
// set and take given, take first traces it, once a process.
func recorded(t *testing.T, name string, take func() (*trace.Snapshot, error)) *trace.Snapshot {
	t.Helper()
	path := filepath.Join(snapshotDir, name+".json")
	if _, done := recordedOnce.LoadOrStore(name, struct{}{}); !done && take != nil && os.Getenv("PLUMBER_RECORD_PROGRESS") != "" {
		snap, err := take()
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := trace.UnmarshalSnapshot(b)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return snap
}

// never is a rule that never fires: the drain runs to its end, and its
// snapshot keeps the whole stream.
func never([]trace.Sample) (float64, bool) { return 0, false }

// askedAsTheTapAsks replays s to rule on progress.record's schedule: at
// every sample until the stream is 16 long, then once it has grown by a
// sixteenth since the last ask. It returns the length at which the rule
// fired and the rate it read, or 0 if it never did.
func askedAsTheTapAsks(rule StopRule, s []trace.Sample) (n int, rate float64) {
	check := 0
	for n = 1; n <= len(s); n++ {
		if n < check {
			continue
		}
		if r, ok := rule(s[:n]); ok {
			return n, r
		}
		check = n + 1 + n/16
	}
	return 0, 0
}

// The two windows Settled tries, each alone.
func earlyWindow(s []trace.Sample) (float64, bool) {
	i := sort.Search(len(s), func(k int) bool { return s[k].At >= s[0].At+settleWarmup })
	if i == len(s) {
		return 0, false
	}
	return settledOver(s, s[i].At, settleTolerance/2, 0)
}

func lateWindow(s []trace.Sample) (float64, bool) {
	return settledOver(s, s[0].At+(s[len(s)-1].At-s[0].At)/3, settleTolerance, 2)
}

// TestCorpusReplaysItsCuts: where the settle rule cut a committed trace, the
// rule, asked of its stream as the tap asks, fires at the last sample, and
// the cut, the sample count and the duration — the cut at the rate it read
// — come out as recorded, to the element and the nanosecond. The settle,
// analysis and plan tests replay these snapshots; a stream recorded short
// or long would replay a different cut.
func TestCorpusReplaysItsCuts(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(snapshotDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshots under %s: %v", snapshotDir, err)
	}
	settled := 0
	for _, path := range paths {
		snap := recorded(t, strings.TrimSuffix(filepath.Base(path), ".json"), nil)
		r := snap.Run
		if r == nil || !r.Settled {
			continue
		}
		settled++
		n, rate := askedAsTheTapAsks(Settled, snap.Progress)
		if n == 0 || n != len(snap.Progress) || r.Samples != n || r.Cut != snap.Progress[n-1].N {
			t.Errorf("%s: replayed, the rule fired at sample %d of %d; the run recorded %d samples, cut %d", path, n, len(snap.Progress), r.Samples, r.Cut)
		} else if d := time.Duration(float64(r.Cut) / rate * float64(time.Second)); d != snap.Duration {
			t.Errorf("%s: replayed, the cut takes %v at %.6g/s; the snapshot says %v", path, d, rate, snap.Duration)
		}
	}
	if settled == 0 {
		t.Fatal("no settled snapshot in the corpus")
	}
}

// TestSettleRuleOnRecordedStreams holds the rule, asked as the tap asks it,
// to the streams of the corpus's whole passes ("<shape>-<k>"), timer noise
// and start-up included. On each it must settle, and read within
// settleTolerance of the stream's slope after its first third; over the
// corpus the median miss must be 3 % or less. The early window must cut at
// least a third of them sooner than the last two thirds alone would; where
// exactly is logged, not asserted: a recording made in a fresh process
// often stalls for a few milliseconds early on, and the early window then
// waits until its halves agree or gives way to the last two thirds. What a
// trace of the vision chain costs is asserted on its settled snapshot by
// the root package's TestSettledTraceCostsASpanNotTwelveMinibatches.
//
// And the early window must not lean: where both windows settle a
// recording, the early one's reading, less the last-two-thirds one's, must
// have a median within 1 % either way over the corpus — it skips so little
// warm-up that a lean there would be start-up showing through.
//
// And each stream is the batch's, finer than root completions, so a trace
// the rule cut there reads X_0 as the rate it read over the batch's size
// (trace.Snapshot.Completions): that must be within 10 % of the X_0 of each
// whole pass of the shape.
func TestSettleRuleOnRecordedStreams(t *testing.T) {
	names, err := filepath.Glob(filepath.Join(snapshotDir, "*-[12].json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no recordings under %s: %v", snapshotDir, err)
	}
	var misses, leans []float64
	sooner := 0
	x0 := map[string][][2]float64{} // by shape: what the rule reads, what the pass did
	for _, path := range names {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		snap := recorded(t, name, nil)
		s, shape := snap.Progress, name[:strings.LastIndex(name, "-")]
		if len(s) <= int(snap.Run.RootCompletions) {
			t.Errorf("%s: a stream of %d samples over %d root completions is not the batch's", name, len(s), snap.Run.RootCompletions)
		}
		if e, early := askedAsTheTapAsks(earlyWindow, s); e > 0 {
			if l, late := askedAsTheTapAsks(lateWindow, s); l > 0 {
				leans = append(leans, (early-late)/late)
				t.Logf("%s: the early window alone reads %.1f/s, the last two thirds alone %.1f/s", name, early, late)
			}
		}
		n, rate := askedAsTheTapAsks(Settled, s)
		if n == 0 {
			t.Errorf("%s: never settled over %d samples", name, len(s))
			continue
		}
		batch, _ := snap.Graph.Node("batch")
		c0, _ := snap.Completions()
		x0[shape] = append(x0[shape], [2]float64{rate / float64(batch.BatchSize), c0 / snap.Duration.Seconds()})
		first, span := s[0].At, s[len(s)-1].At-s[0].At
		from := sort.Search(len(s), func(k int) bool { return s[k].At >= first+span/3 })
		want, _ := slope(s[from:])
		miss := math.Abs(rate-want) / want
		misses = append(misses, miss)
		took := s[n-1].At - first
		if l, _ := askedAsTheTapAsks(lateWindow, s); n < l {
			sooner++
		}
		t.Logf("%s: settled after %d samples, %v in, on %.1f/s; the stream's last two thirds %.1f/s", name, n, took, rate, want)
		if miss > settleTolerance {
			t.Errorf("%s: settled on %.1f/s, the stream's last two thirds run at %.1f/s", name, rate, want)
		}
	}
	for shape, xs := range x0 {
		for _, read := range xs {
			for _, pass := range xs {
				if math.Abs(read[0]-pass[1]) > 0.10*pass[1] {
					t.Errorf("%s: a trace the rule cut reads X_0 = %.2f, a whole pass %.2f", shape, read[0], pass[1])
				}
			}
		}
	}
	if len(misses) > 0 {
		slices.Sort(misses)
		if median := misses[len(misses)/2]; median > 0.03 {
			t.Errorf("the rule's median miss over %d recordings is %.1f %%, want ≤ 3 %%", len(misses), 100*median)
		}
	}
	if 3*sooner < len(names) {
		t.Errorf("the early window cut %d of %d recordings sooner than the last two thirds alone, want at least a third", sooner, len(names))
	}
	if len(leans) == 0 {
		t.Fatal("no recording settles under both windows")
	}
	slices.Sort(leans)
	if median := leans[len(leans)/2]; math.Abs(median) > 0.01 {
		t.Errorf("over %d recordings the early window reads a median %+.1f %% off the last two thirds, want within 1 %%", len(leans), 100*median)
	}
}
