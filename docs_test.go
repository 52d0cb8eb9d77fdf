package plumber

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles returns README.md plus every docs/*.md file.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no docs/*.md files found — the architecture guide is part of the contract")
	}
	return append(files, docs...)
}

// TestDocsInternalLinksResolve checks every local markdown link in
// README.md and docs/*.md: the linked file must exist relative to the
// linking document. External links (scheme prefixes) and pure anchors are
// skipped; a link's own #anchor suffix is stripped before the check.
func TestDocsInternalLinksResolve(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, doc := range docFiles(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range link.FindAllStringSubmatch(string(b), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, but %s does not exist", doc, m[1], resolved)
			}
		}
	}
}
