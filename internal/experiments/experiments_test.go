package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], " reports/s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestE1ShapeAndTrends(t *testing.T) {
	tab := E1Compression(true)
	if len(tab.Rows) < 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Baseline row: ratio 1, zero error, F1 near 1.
	if tab.Rows[0][0] != "none" {
		t.Fatal("first row must be the uncompressed baseline")
	}
	baseF1 := cell(t, tab, 0, 4)
	if baseF1 < 0.9 {
		t.Errorf("baseline CER F1 = %f", baseF1)
	}
	// Threshold sweep: ratio grows with the deviation threshold.
	r25 := cell(t, tab, 1, 1)
	r400 := cell(t, tab, 5, 1)
	if r400 <= r25 {
		t.Errorf("ratio not increasing with threshold: %f vs %f", r25, r400)
	}
	if r25 < 1.5 {
		t.Errorf("25m threshold ratio %f too low", r25)
	}
	// Error grows with threshold.
	if cell(t, tab, 5, 2) <= cell(t, tab, 1, 2) {
		t.Error("mean SED should grow with threshold")
	}
	// The paper's claim: moderate compression keeps analytics quality.
	f50 := cell(t, tab, 2, 4)
	if f50 < baseF1-0.15 {
		t.Errorf("50m compression degraded CER F1 too much: %f vs %f", f50, baseF1)
	}
	if tab.String() == "" {
		t.Error("empty render")
	}
}

// TestE2Throughput runs E2 on core.Ingestor: every line is processed at
// every worker count, and keyed workers decode, gate and keep exactly what
// one worker does.
func TestE2Throughput(t *testing.T) {
	tab := E2StreamThroughput(true)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	lines := float64(len(e2Scenario(true).WireTimed))
	for i := range tab.Rows {
		if got := cell(t, tab, i, 1); got != lines {
			t.Errorf("row %d: %v lines processed, want %v", i, got, lines)
		}
		if lps := cell(t, tab, i, 3); lps <= 0 {
			t.Errorf("row %d: %v lines/s", i, lps)
		}
		for col := 4; col <= 6; col++ {
			if got, want := tab.Rows[i][col], tab.Rows[0][col]; got != want {
				t.Errorf("row %d %s = %s, want %s as with one worker", i, tab.Header[col], got, want)
			}
		}
	}
	if kept := cell(t, tab, 0, 6); kept <= 0 || kept >= lines {
		t.Errorf("kept = %v of %v lines", kept, lines)
	}
}

func TestE3PartitioningTrends(t *testing.T) {
	tab := E3Partitioning(true)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// hash row: balance near 1, no pruning.
	if bf := cell(t, tab, 0, 2); bf > 1.6 {
		t.Errorf("hash balance = %f", bf)
	}
	if pr := cell(t, tab, 0, 5); pr != 0 {
		t.Errorf("hash pruning = %f, want 0", pr)
	}
	// grid and hilbert rows prune.
	for _, row := range []int{1, 2} {
		if pr := cell(t, tab, row, 5); pr <= 0.3 {
			t.Errorf("row %d pruning = %f, want > 0.3", row, pr)
		}
	}
	// temporal prunes nothing for full-time queries.
	if pr := cell(t, tab, 3, 5); pr > 0.01 {
		t.Errorf("temporal pruning for full-time queries = %f", pr)
	}
}

func TestE4SpeedupShape(t *testing.T) {
	tab := E4ParallelQuery(true)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if sp := cell(t, tab, 0, 2); sp != 1 {
		t.Errorf("1-worker speedup = %f", sp)
	}
	// More workers must not be drastically slower than serial.
	if sp := cell(t, tab, len(tab.Rows)-1, 2); sp < 0.5 {
		t.Errorf("8-worker speedup = %f", sp)
	}
}

func TestE5BlockingWinsTime(t *testing.T) {
	tab := E5LinkDiscovery(true)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Both matchers accurate on this noise level.
	for _, row := range []int{0, 1} {
		if f := cell(t, tab, row, 5); f < 0.75 {
			t.Errorf("row %d f1 = %f", row, f)
		}
	}
}

func TestE6ForecastShape(t *testing.T) {
	tab := E6TrajForecast(true)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Errors grow with horizon for dead reckoning (both domains; rows 0 and 4).
	for _, row := range []int{0, 4} {
		e1 := cell(t, tab, row, 2)
		e30 := cell(t, tab, row, 6)
		if e30 <= e1 {
			t.Errorf("row %d: DR error not growing: %f..%f", row, e1, e30)
		}
	}
	// The archival-history model must beat dead reckoning at the 30-minute
	// horizon in both domains — the paper's central "exploit archival
	// data" premise (maritime knn row 3, aviation knn row 7).
	if dr, knn := cell(t, tab, 0, 6), cell(t, tab, 3, 6); knn >= dr {
		t.Errorf("maritime: knn-history %f should beat dead reckoning %f at 30min", knn, dr)
	}
	if dr, knn := cell(t, tab, 4, 6), cell(t, tab, 7, 6); knn >= dr {
		t.Errorf("aviation: knn-history %f should beat dead reckoning %f at 30min", knn, dr)
	}
}

func TestE7QualityAndLatency(t *testing.T) {
	tab := E7EventRecognition(true)
	if len(tab.Rows) < 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// find loitering row and check recall ≥0.99 formatted "p / r / f1 (...)".
	found := false
	for _, row := range tab.Rows {
		if row[0] == "loitering P/R/F1" {
			found = true
			parts := strings.Split(row[1], "/")
			if len(parts) < 3 {
				t.Fatalf("malformed row %q", row[1])
			}
			r, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
			if err != nil || r < 0.99 {
				t.Errorf("loitering recall = %v (%v)", r, err)
			}
		}
	}
	if !found {
		t.Fatal("loitering row missing")
	}
}

func TestE8ForecastTrends(t *testing.T) {
	tab := E8EventForecast(true)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Precision should beat the base rate at every horizon (the forecast
	// carries signal).
	for i := range tab.Rows {
		prec := cell(t, tab, i, 2)
		base := cell(t, tab, i, 4)
		if prec <= base {
			t.Errorf("horizon row %d: precision %f not above base rate %f", i, prec, base)
		}
	}
	// The longest horizon must retain usable recall. (Recall is not
	// monotone in the horizon: wider horizons add positives whose runs
	// have not even started, which no state-based forecast can flag.)
	if cell(t, tab, 3, 3) < 0.2 {
		t.Errorf("recall at longest horizon = %f", cell(t, tab, 3, 3))
	}
}

func TestE9HotspotDetection(t *testing.T) {
	tab := E9Hotspots(true)
	// At some occupancy threshold both scripted episodes are found.
	foundPerfect := false
	for _, row := range tab.Rows {
		if row[0] == "sector-occupancy" && row[4] == "1.00" {
			foundPerfect = true
		}
	}
	if !foundPerfect {
		t.Errorf("no occupancy threshold achieved full recall: %s", tab)
	}
}

func TestE10LatencyBudget(t *testing.T) {
	tab := E10EndToEnd(true)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		p99, err := parseDur(row[4])
		if err != nil {
			t.Fatalf("p99 %q: %v", row[4], err)
		}
		// The paper's operational requirement: milliseconds.
		if p99 > 100_000_000 { // 100ms in ns
			t.Errorf("%s p99 = %s exceeds 100ms", row[0], row[4])
		}
	}
}

func parseDur(s string) (int64, error) {
	d, err := time.ParseDuration(s)
	return int64(d), err
}

func TestE12ForecastShapeAndTrends(t *testing.T) {
	tab := E12OnlineForecast(true)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d: %s", len(tab.Rows), tab)
	}
	// Accuracy rows: error grows with horizon and every horizon has
	// samples.
	var errs []float64
	for r := 0; r < 3; r++ {
		if tab.Rows[r][0] != "serving-path accuracy" {
			t.Fatalf("row %d = %q", r, tab.Rows[r][0])
		}
		if n := cell(t, tab, r, 3); n == 0 {
			t.Fatalf("horizon %s has no samples", tab.Rows[r][1])
		}
		errs = append(errs, cell(t, tab, r, 2))
	}
	if !(errs[0] < errs[2]) {
		t.Errorf("forecast error should grow from 5m to 20m horizon: %v", errs)
	}
	// 5-minute serving forecasts on mostly-lane traffic stay under 1km.
	if errs[0] > 1000 {
		t.Errorf("5-minute serving error %f m implausibly high", errs[0])
	}
}

func TestE14SynopsesCompressionAndFidelity(t *testing.T) {
	tab := E14Synopses(true)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d: %s", len(tab.Rows), tab)
	}
	raw := cell(t, tab, 0, 1)
	critical := cell(t, tab, 1, 1)
	if raw == 0 || critical == 0 {
		t.Fatalf("degenerate measurement: raw=%v critical=%v", raw, critical)
	}
	// The acceptance bar: ≥ 5x point compression on synthetic maritime
	// traffic.
	if ratio := raw / critical; ratio < 5 {
		t.Errorf("compression ratio = %.1f, want ≥ 5", ratio)
	}
	// Synopsis-reconstructed RMSE is reported and plausible: above zero,
	// and not worse than the raw noise floor by more than an order of
	// magnitude (the reconstruction interpolates the same lanes).
	recRMSE, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[3][1], " m"), 64)
	if err != nil {
		t.Fatalf("reconstruction RMSE cell %q: %v", tab.Rows[3][1], err)
	}
	rawRMSE, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[4][1], " m"), 64)
	if err != nil {
		t.Fatalf("raw RMSE cell %q: %v", tab.Rows[4][1], err)
	}
	if recRMSE <= 0 || rawRMSE <= 0 {
		t.Fatalf("RMSE rows empty: rec=%v raw=%v", recRMSE, rawRMSE)
	}
	if recRMSE > 10*rawRMSE+500 {
		t.Errorf("reconstruction RMSE %.0f m implausibly far above the %.0f m noise floor", recRMSE, rawRMSE)
	}
}
