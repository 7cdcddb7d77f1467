package datacron

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMarkdownLinks is the markdown link check (CI runs it as its own
// step): the operator docs must exist and every relative link in them must
// resolve to a file in the repository.
func TestMarkdownLinks(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)]+)\)`)
	for _, doc := range []string{"README.md", "OPERATIONS.md", "DESIGN.md", "ROADMAP.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, m := range link.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s: broken link %q", doc, m[1])
			}
		}
	}
}

// TestGoDocReferences fails when a Go file cites a markdown document that
// is not at the repository root: every "<name>.md" token in a .go file
// outside bench/ (its own module with its own README) and testdata/ must
// name a root document.
func TestGoDocReferences(t *testing.T) {
	doc := regexp.MustCompile(`[A-Za-z0-9_-]+\.md\b`)
	for _, path := range goFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range doc.FindAllString(line, -1) {
				if _, err := os.Stat(name); err != nil {
					t.Errorf("%s:%d: cites %s, which is not at the repository root", path, i+1, name)
				}
			}
		}
	}
}
