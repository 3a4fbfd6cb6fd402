package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MarshalJSON renders the bucket with its upper bound as a string
// ("+Inf" for the overflow bucket), matching the Prometheus "le" label
// convention — encoding/json cannot represent infinities as numbers.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(`{"le":` + strconv.Quote(formatBound(b.UpperBound)) +
		`,"count":` + strconv.FormatInt(b.Count, 10) + `}`), nil
}

// UnmarshalJSON parses the string-bound form MarshalJSON writes, so
// snapshots embedded in run records round-trip.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	bound, err := parseBound(raw.Le)
	if err != nil {
		return fmt.Errorf("telemetry: bad bucket bound %q: %w", raw.Le, err)
	}
	b.UpperBound = bound
	b.Count = raw.Count
	return nil
}

func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func parseBound(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, counters and
// gauges as plain samples, histograms as cumulative _bucket{le=...}
// series plus _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, c := range s.Counters {
		if err := writeHeader(w, c.Name, c.Help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := writeHeader(w, g.Name, g.Help, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", g.Name, formatBound(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := writeHeader(w, h.Name, h.Help, "histogram"); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, formatBound(b.UpperBound), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.Name, formatBound(h.Sum), h.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// escapeHelp applies the Prometheus text-format HELP escaping:
// backslash and newline must be escaped so a hostile or merely careless
// help string cannot break the line-oriented exposition.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
