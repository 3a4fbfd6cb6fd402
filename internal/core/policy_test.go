package core

import "testing"

// TestParsePolicyRoundTrip: every policy's String parses back to that
// policy, and an unknown key or name is rejected without touching cfg.
func TestParsePolicyRoundTrip(t *testing.T) {
	var cfg Config
	for _, p := range []FillPolicy{FillZero, FillOne, FillRepeat} {
		if err := ParsePolicy(&cfg, "fill", p.String()); err != nil || cfg.Fill != p {
			t.Fatalf("fill %s: got %s, %v", p, cfg.Fill, err)
		}
	}
	for _, p := range []TieBreak{TieOldest, TieNewest, TieWidest} {
		if err := ParsePolicy(&cfg, "tie", p.String()); err != nil || cfg.Tie != p {
			t.Fatalf("tie %s: got %s, %v", p, cfg.Tie, err)
		}
	}
	for _, p := range []FullPolicy{FullFreeze, FullReset} {
		if err := ParsePolicy(&cfg, "full", p.String()); err != nil || cfg.Full != p {
			t.Fatalf("full %s: got %s, %v", p, cfg.Full, err)
		}
	}
	before := cfg
	for _, kv := range [][2]string{{"fill", "two"}, {"tie", ""}, {"full", "Reset"}, {"fill", "FillPolicy(3)"}, {"mode", "zero"}} {
		if err := ParsePolicy(&cfg, kv[0], kv[1]); err == nil {
			t.Fatalf("%s=%q parsed", kv[0], kv[1])
		}
	}
	if cfg != before {
		t.Fatalf("a rejected name changed cfg: %+v, want %+v", cfg, before)
	}
}
