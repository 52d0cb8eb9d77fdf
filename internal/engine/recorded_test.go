package engine

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// The recorded streams are the progress streams of whole traced passes,
// kept under testdata/progress as "<shape>-<k>.txt", one sample a line:
// nanoseconds since the trace began, then the count. The root package's
// TestRecordProgressStreams records its bounded vision shapes (chain,
// replicas, filter, zip, repeat) and this package's records the throttled
// chain of TestBoundedTraceRun ("slow"); regenerate them with
//
//	PLUMBER_RECORD_PROGRESS=1 go test -p 1 -count=1 -run TestRecordProgressStreams . ./internal/engine
//
// (-p 1: a package built beside a recording slows the stream it records)
// and commit every file it writes: a recording the rule misreads is a bug in
// the rule, not in the recording.
const progressDir = "testdata/progress"

// TestRecordProgressStreams writes two recordings of the throttled chain
// when PLUMBER_RECORD_PROGRESS is set. A rule that never fires is shown the
// stream as it grows; what it was last shown is the recording — the whole
// pass, but for at most the last seventeenth the ask throttle leaves unseen.
func TestRecordProgressStreams(t *testing.T) {
	if os.Getenv("PLUMBER_RECORD_PROGRESS") == "" {
		t.Skip("set PLUMBER_RECORD_PROGRESS=1 to record")
	}
	_, reg := testSetup(t)
	g := pipeline.NewBuilder().
		Named("src").Interleave(slowCatalog.Name, 1).
		Named("work").Map("noop", 1).
		Named("batch").Batch(16).
		MustBuild()
	for k := 1; k <= 2; k++ {
		var seen []Sample
		record := func(s []Sample) (float64, bool) {
			seen = append(seen[:0], s...)
			return 0, false
		}
		if _, err := TraceRun(g, Options{FS: slowFS(t), UDFs: reg}, trace.Machine{Name: "record", Cores: 2}, 0, record); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, x := range seen {
			fmt.Fprintf(&b, "%d %d\n", x.At.Nanoseconds(), x.N)
		}
		path := filepath.Join(progressDir, fmt.Sprintf("slow-%d.txt", k))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d samples over %v", path, len(seen), seen[len(seen)-1].At-seen[0].At)
	}
}

func readProgress(t *testing.T, path string) []Sample {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var s []Sample
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var at, n int64
		if _, err := fmt.Sscan(sc.Text(), &at, &n); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		s = append(s, Sample{At: time.Duration(at), N: n})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// askedAsTheTapAsks replays s to rule on progress.record's schedule: at
// every sample until the stream is 16 long, then once it has grown by a
// sixteenth since the last ask. It returns the length at which the rule
// fired and the rate it read, or 0 if it never did.
func askedAsTheTapAsks(rule StopRule, s []Sample) (n int, rate float64) {
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
func earlyWindow(s []Sample) (float64, bool) {
	i := sort.Search(len(s), func(k int) bool { return s[k].At >= s[0].At+settleWarmup })
	if i == len(s) {
		return 0, false
	}
	return settledOver(s, s[i].At, settleTolerance/2, 0)
}

func lateWindow(s []Sample) (float64, bool) {
	return settledOver(s, s[0].At+(s[len(s)-1].At-s[0].At)/3, settleTolerance, 2)
}

// TestSettleRuleOnRecordedStreams holds the rule, asked as the tap asks it,
// to streams real traced drains made, timer noise and start-up included. On
// each it must settle, and read within settleTolerance of the stream's slope
// after its first third; over the corpus the median miss must be 3 % or
// less. The early window must cut at least a third of them sooner than the
// last two thirds alone would; where exactly is logged, not asserted: a
// recording made in a fresh process often stalls for a few milliseconds
// early on, and the early window then waits until its halves agree or gives
// way to the last two thirds. What a live trace of the vision chain costs is
// asserted by the root package's
// TestSettledTraceCostsASpanNotTwelveMinibatches.
//
// And the early window must not lean: where both windows settle a
// recording, the early one's reading, less the last-two-thirds one's, must
// have a median within 1 % either way over the corpus — it skips so little
// warm-up that a lean there would be start-up showing through.
func TestSettleRuleOnRecordedStreams(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(progressDir, "*.txt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no recordings under %s: %v", progressDir, err)
	}
	var misses, leans []float64
	sooner := 0
	for _, path := range paths {
		name := filepath.Base(path)
		s := readProgress(t, path)
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
	if len(misses) > 0 {
		slices.Sort(misses)
		if median := misses[len(misses)/2]; median > 0.03 {
			t.Errorf("the rule's median miss over %d recordings is %.1f %%, want ≤ 3 %%", len(misses), 100*median)
		}
	}
	if 3*sooner < len(paths) {
		t.Errorf("the early window cut %d of %d recordings sooner than the last two thirds alone, want at least a third", sooner, len(paths))
	}
	if len(leans) == 0 {
		t.Fatal("no recording settles under both windows")
	}
	slices.Sort(leans)
	if median := leans[len(leans)/2]; math.Abs(median) > 0.01 {
		t.Errorf("over %d recordings the early window reads a median %+.1f %% off the last two thirds, want within 1 %%", len(leans), 100*median)
	}
}
