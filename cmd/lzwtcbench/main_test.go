package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the code
// must agree with.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)",
					kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload for a second, untraced and traced,
// against the in-process server, and checks the result line.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", trace}
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d",
					w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if !metricName.MatchString(d.name) {
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
				}
			}
			if trace == "0" && (res.Metrics["ops_per_s"].Value <= 0 || res.Metrics["ratio_pct"].Value <= 0) {
				t.Errorf("%s: implausible result %+v", w.name, res.Metrics)
			}
		}
	}
}

// inputDigests sets the workload up and returns a digest of each input
// with its references, and one of the inputs' cube text alone.
func inputDigests(t *testing.T, w workload, seed int64) (all [][32]byte, text [32]byte) {
	t.Helper()
	e, err := setup(context.Background(), w, seed, nil)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if err := e.close(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, in := range e.inputs {
		all = append(all, in.digest())
		h.Write(in.text)
	}
	copy(text[:], h.Sum(nil))
	return all, text
}

func TestSeedDeterminesInputsAndReferences(t *testing.T) {
	for _, w := range workloads {
		a, textA := inputDigests(t, w, 7)
		b, _ := inputDigests(t, w, 7)
		if len(a) != len(b) {
			t.Fatalf("%s: %d inputs, then %d", w.name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: input %d or its references differ between two set-ups with one seed", w.name, i)
			}
		}
		if _, textC := inputDigests(t, w, 8); textC == textA {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
	}
}
