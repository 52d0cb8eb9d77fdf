package data

import (
	"sync"
	"testing"
)

// TestFileNamesBuiltOncePerShape: sources that start at once (two tenants)
// race to build a catalog's names, and all of them get the one slice that
// was stored; a value the names depend on (a re-registered name with
// another file count, or a subsample) gets a slice of its own.
func TestFileNamesBuiltOncePerShape(t *testing.T) {
	c := Catalog{Name: "data-test-names", NumFiles: 8, RecordsPerFile: 1, MeanRecordBytes: 64}
	var got [4][]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.FileNames()
		}()
	}
	wg.Wait()
	for i, names := range got {
		if len(names) != 8 || &names[0] != &got[0][0] {
			t.Fatalf("goroutine %d got its own slice of %d names", i, len(names))
		}
	}
	for i, n := range got[0] {
		if n != c.FileName(i) {
			t.Fatalf("name %d = %q, want %q", i, n, c.FileName(i))
		}
	}
	grown := c
	grown.NumFiles = 16
	if g := grown.FileNames(); len(g) != 16 || g[0] != grown.FileName(0) || g[0] == got[0][0] {
		t.Fatalf("16-file catalog reads %d names starting %q", len(g), g[0])
	}
	sampled := grown
	sampled.SampleFiles = 4
	if s := sampled.FileNames(); len(s) != 4 || s[3] != grown.FileName(3) {
		t.Fatalf("4-file subsample reads %d names", len(s))
	}
}
