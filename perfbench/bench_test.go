package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, // fewer than 10 beyond even the median
		{20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{1000, 99}, {1999, 99}, {2000, 99.5}, {10000, 99.9}, {100000, 99.99}, {1e6, 99.99},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	for _, n := range []int{20, 57, 100, 999, 1000, 4321} {
		s := make(series, n)
		for i := range s {
			s[n-1-i] = float64(i) // descending, so summarize must sort
		}
		sm := summarize(s)
		beyond := 0
		for _, v := range s {
			if v > sm.tail {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it, want >= %d", n, sm.tailPct, sm.tail, beyond, minBeyond)
		}
		if sm.p50 != s.percentile(50) || sm.max != float64(n-1) {
			t.Errorf("n=%d: p50 %g max %g", n, sm.p50, sm.max)
		}
	}
	if sm := summarize(series{3, 1, 2}); sm.tailPct != 100 || sm.tail != 3 {
		t.Errorf("3 samples: tail p%g = %g, want the maximum as p100", sm.tailPct, sm.tail)
	}
}

func TestScheduleReproducible(t *testing.T) {
	a := schedule(7, 40, 5*time.Second, distinctWeights)
	b := schedule(7, 40, 5*time.Second, distinctWeights)
	c := schedule(8, 40, 5*time.Second, distinctWeights)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs for one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Errorf("seeds 7 and 8 gave the same schedule")
	}
	keys := make([]int, len(distinctWeights))
	checks := 0
	prev := time.Duration(0)
	for _, x := range a {
		if x.at < prev || x.at >= 5*time.Second {
			t.Fatalf("arrival at %v out of order or past the end", x.at)
		}
		prev = x.at
		if x.frac < budgetLo || x.frac >= budgetHi {
			t.Errorf("budget fraction %g outside [%g, %g)", x.frac, budgetLo, budgetHi)
		}
		keys[x.key]++
		if x.check {
			checks++
		}
	}
	// 200 expected arrivals; the 3:1 mix should put well over half on key 0.
	if len(a) < 140 || len(a) > 260 || keys[0] < 2*keys[1] {
		t.Errorf("%d arrivals split %v, want about 200 split 3:1", len(a), keys)
	}
	if checks != distinctChecks*len(distinctWeights) {
		t.Errorf("%d arrivals marked for the reference check, want %d", checks, distinctChecks*len(distinctWeights))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 20, 2: 20, 3: 70, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestMetricNames checks every reported name against the name rule and
// against BENCHMARK.json, which must list exactly these metrics.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", what, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", what, d.name)
			}
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: program reports %s (%s), BENCHMARK.json lists %s (%s)",
					what, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, doc.EndToEnd)
	compare("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil || !valid.MatchString(w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks the result line: the correctness gate passed and every metric
// is present with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				t.Setenv("CARGO_TARGET_DIR", t.TempDir())
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v", res)
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v", d.name, m)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "sweep", "--seconds", "0"},
		{"--workload", "sweep", "--trace", "2"},
		{"--workload", "sweep", "--ladder"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
