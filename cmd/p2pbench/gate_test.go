package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// BenchmarkGate runs every gated path (gateMetrics) as a sub-benchmark,
// so the gated paths can be profiled with the standard tooling:
//
//	go test -run NONE -bench 'Gate/b5' -cpuprofile cpu.prof ./cmd/p2pbench
func BenchmarkGate(b *testing.B) {
	for _, m := range gateMetrics {
		b.Run(m.key, func(b *testing.B) {
			run, done, err := m.setup(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if done != nil {
				if err := done(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func loadBaseline(t *testing.T) gateResult {
	t.Helper()
	data, err := os.ReadFile("../../bench/BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base gateResult
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestGateBaselineCoversTable: every key of every gate row has a
// positive figure in the checked-in baseline. gateCompare skips a
// metric the baseline lacks, so a mistyped key would silently drop that
// metric from the gate.
func TestGateBaselineCoversTable(t *testing.T) {
	base := loadBaseline(t)
	if base["parallelism"] != 1 || base["calib_ns"] <= 0 {
		t.Fatalf("baseline parallelism=%v calib_ns=%v", base["parallelism"], base["calib_ns"])
	}
	for _, m := range gateMetrics {
		for _, k := range []string{m.nsKey(), m.normKey(), m.allocsKey()} {
			if base[k] <= 0 {
				t.Errorf("%s: baseline has no positive %q", m.name, k)
			}
		}
	}
}

// TestGateCompareCatchesRegression: a synthetic 30% regression of any
// row's normalized time or allocation count fails the gate, naming the
// row, and the baseline against itself passes.
func TestGateCompareCatchesRegression(t *testing.T) {
	base := loadBaseline(t)
	if err := gateCompare(io.Discard, base, base, 0.25); err != nil {
		t.Fatalf("baseline against itself: %v", err)
	}
	for _, m := range gateMetrics {
		for _, k := range []string{m.normKey(), m.allocsKey()} {
			cur := gateResult{}
			for key, v := range base {
				cur[key] = v
			}
			cur[k] *= 1.3
			err := gateCompare(io.Discard, cur, base, 0.25)
			if err == nil || !strings.Contains(err.Error(), m.name) {
				t.Errorf("%s: +30%% on %s gave %v", m.name, k, err)
			}
		}
	}
}
