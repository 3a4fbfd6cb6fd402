package analysis

import "testing"

// TestMatchPathPatterns: "p/..." matches p and below, a slashed
// pattern matches as a suffix, and a slashless one names exactly the
// module root, not a command of the same name under it.
func TestMatchPathPatterns(t *testing.T) {
	for _, tc := range []struct {
		path, pat string
		want      bool
	}{
		{"lzwtc", "lzwtc", true},
		{"lzwtc/cmd/lzwtc", "lzwtc", false},
		{"lzwtc/internal/server", "internal/server", true},
		{"lzwtc/internal/serverx", "internal/server", false},
		{"lzwtc/cmd/lzwtc", "lzwtc/cmd/...", true},
		{"lzwtc/cmd", "lzwtc/cmd/...", true},
		{"lzwtc/cmdx", "lzwtc/cmd/...", false},
	} {
		if got := matchPath(tc.path, []string{tc.pat}); got != tc.want {
			t.Errorf("matchPath(%q, %q) = %v, want %v", tc.path, tc.pat, got, tc.want)
		}
	}
}
