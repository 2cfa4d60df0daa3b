package routine

import (
	"math"
	"testing"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/power"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func build(t *testing.T, spec Spec) Cycle {
	t.Helper()
	c, err := Build(power.DefaultPi3B(), power.DefaultCloud(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var fiveMin = 5 * time.Minute

// TestTableIEdgeSVM checks the cycle against Table I's SVM column.
func TestTableIEdgeSVM(t *testing.T) {
	c := build(t, Spec{Period: fiveMin, Model: SVM, Placement: EdgeOnly})
	rows := []struct {
		name    string
		joules  float64
		seconds float64
	}{
		{"Sleep", 111.6, 178.5},
		{"Wake up & Data collection", 131.8, 64.0},
		{"Queen detection model (SVM)", 98.9, 46.1},
		{"Send results", 3.0, 1.5},
		{"Shutdown", 21.0, 9.9},
	}
	if len(c.EdgeTasks) != len(rows) {
		t.Fatalf("edge tasks = %d, want %d", len(c.EdgeTasks), len(rows))
	}
	for i, row := range rows {
		task := c.EdgeTasks[i]
		if task.Name != row.name {
			t.Errorf("row %d name = %q, want %q", i, task.Name, row.name)
		}
		if !almostEq(float64(task.Energy), row.joules, 0.1) {
			t.Errorf("row %d energy = %v, want %v J", i, task.Energy, row.joules)
		}
		if !almostEq(task.Duration.Seconds(), row.seconds, 0.01) {
			t.Errorf("row %d duration = %v, want %v s", i, task.Duration, row.seconds)
		}
	}
	// Table I total: 366.3 J over 300 s.
	if !almostEq(float64(c.EdgeEnergy()), 366.3, 0.2) {
		t.Errorf("total edge energy = %v, want 366.3 J", c.EdgeEnergy())
	}
	if !almostEq(c.Duration().Seconds(), 300, 1e-9) {
		t.Errorf("cycle duration = %v, want 300 s", c.Duration())
	}
	if len(c.CloudTasks) != 0 || c.CloudEnergy() != 0 {
		t.Error("edge scenario must have no cloud tasks")
	}
}

// TestTableIEdgeCNN checks the cycle against Table I's CNN column.
func TestTableIEdgeCNN(t *testing.T) {
	c := build(t, Spec{Period: fiveMin, Model: CNN, Placement: EdgeOnly})
	// Sleep stretches to fill the shorter CNN inference: 187.0 s.
	if !almostEq(c.EdgeTasks[0].Duration.Seconds(), 187.0, 0.01) {
		t.Errorf("CNN sleep = %v, want 187.0 s", c.EdgeTasks[0].Duration)
	}
	if !almostEq(float64(c.EdgeTasks[0].Energy), 116.9, 0.1) {
		t.Errorf("CNN sleep energy = %v, want 116.9 J", c.EdgeTasks[0].Energy)
	}
	// Table I total: 367.5 J.
	if !almostEq(float64(c.EdgeEnergy()), 367.5, 0.2) {
		t.Errorf("total = %v, want 367.5 J", c.EdgeEnergy())
	}
}

// TestTableIIEdgeCloudSVM checks both timelines of Table II (SVM).
func TestTableIIEdgeCloudSVM(t *testing.T) {
	c := build(t, Spec{Period: fiveMin, Model: SVM, Placement: EdgeCloud})

	edgeRows := []struct {
		joules  float64
		seconds float64
	}{
		{131.9, 211.1}, // sleep
		{131.8, 64.0},  // wake & collect
		{37.3, 15.0},   // send audio
		{0.2, 0.1},     // shutdown (during cloud exec)
		{20.8, 9.8},    // shutdown (rest)
	}
	for i, row := range edgeRows {
		task := c.EdgeTasks[i]
		if !almostEq(float64(task.Energy), row.joules, 0.1) {
			t.Errorf("edge row %d energy = %v, want %v J", i, task.Energy, row.joules)
		}
		if !almostEq(task.Duration.Seconds(), row.seconds, 0.01) {
			t.Errorf("edge row %d duration = %v, want %v s", i, task.Duration, row.seconds)
		}
	}
	// Edge total: 322.0 J.
	if !almostEq(float64(c.EdgeEnergy()), 322.0, 0.2) {
		t.Errorf("edge total = %v, want 322.0 J", c.EdgeEnergy())
	}

	cloudRows := []struct {
		joules  float64
		seconds float64
	}{
		{9415, 211.1}, // idle during sleep
		{2854, 64.0},  // idle during collection
		{1032, 15.0},  // receive audio
		{6.3, 0.1},    // SVM execution
		{437, 9.8},    // idle during the rest of the shutdown
	}
	for i, row := range cloudRows {
		task := c.CloudTasks[i]
		if !almostEq(float64(task.Energy), row.joules, 1.0) {
			t.Errorf("cloud row %d energy = %v, want %v J", i, task.Energy, row.joules)
		}
		if !almostEq(task.Duration.Seconds(), row.seconds, 0.01) {
			t.Errorf("cloud row %d duration = %v, want %v s", i, task.Duration, row.seconds)
		}
	}
	// Cloud total: 13 744.3 J.
	if !almostEq(float64(c.CloudEnergy()), 13744.3, 2) {
		t.Errorf("cloud total = %v, want 13744.3 J", c.CloudEnergy())
	}
}

// TestTableIIEdgeCloudCNN checks the CNN variant's distinctive rows.
func TestTableIIEdgeCloudCNN(t *testing.T) {
	c := build(t, Spec{Period: fiveMin, Model: CNN, Placement: EdgeCloud})
	// Shutdown split at 1.0 s (CNN exec): 2.1 J + 18.9 J.
	if !almostEq(float64(c.EdgeTasks[3].Energy), 2.1, 0.05) {
		t.Errorf("shutdown A = %v, want 2.1 J", c.EdgeTasks[3].Energy)
	}
	if !almostEq(float64(c.EdgeTasks[4].Energy), 18.9, 0.05) {
		t.Errorf("shutdown B = %v, want 18.9 J", c.EdgeTasks[4].Energy)
	}
	if !almostEq(float64(c.EdgeEnergy()), 322.0, 0.2) {
		t.Errorf("edge total = %v, want 322.0 J", c.EdgeEnergy())
	}
	// CNN exec 108 J, trailing idle 397 J; cloud total 13 806 J.
	if !almostEq(float64(c.CloudTasks[3].Energy), 108, 0.01) {
		t.Errorf("CNN exec = %v, want 108 J", c.CloudTasks[3].Energy)
	}
	if !almostEq(float64(c.CloudTasks[4].Energy), 397, 1) {
		t.Errorf("trailing idle = %v, want 397 J", c.CloudTasks[4].Energy)
	}
	if !almostEq(float64(c.CloudEnergy()), 13806, 2) {
		t.Errorf("cloud total = %v, want 13806 J", c.CloudEnergy())
	}
}

// TestEdgeSavingMatchesPaper: the paper reports the edge consumes 12.1%
// (SVM) / 12.4% (CNN) less in the edge+cloud scenario.
func TestEdgeSavingMatchesPaper(t *testing.T) {
	for _, tc := range []struct {
		model Model
		want  float64
	}{
		{SVM, 12.1},
		{CNN, 12.4},
	} {
		edge := build(t, Spec{Period: fiveMin, Model: tc.model, Placement: EdgeOnly})
		ec := build(t, Spec{Period: fiveMin, Model: tc.model, Placement: EdgeCloud})
		saving := (1 - float64(ec.EdgeEnergy())/float64(edge.EdgeEnergy())) * 100
		if !almostEq(saving, tc.want, 0.2) {
			t.Errorf("%v edge saving = %.2f%%, want %.1f%%", tc.model, saving, tc.want)
		}
	}
}

// TestModelChoiceBarelyMatters: the paper notes only 1.2 J of difference
// between SVM and CNN at the edge.
func TestModelChoiceBarelyMatters(t *testing.T) {
	svm := build(t, Spec{Period: fiveMin, Model: SVM, Placement: EdgeOnly})
	cnn := build(t, Spec{Period: fiveMin, Model: CNN, Placement: EdgeOnly})
	diff := math.Abs(float64(svm.EdgeEnergy() - cnn.EdgeEnergy()))
	if diff > 2 {
		t.Fatalf("SVM/CNN edge difference = %v J, want ~1.2 J", diff)
	}
	// And the edge+cloud edge cost is identical between models.
	a := build(t, Spec{Period: fiveMin, Model: SVM, Placement: EdgeCloud})
	b := build(t, Spec{Period: fiveMin, Model: CNN, Placement: EdgeCloud})
	if !almostEq(float64(a.EdgeEnergy()), float64(b.EdgeEnergy()), 1e-9) {
		t.Fatal("edge cost in edge+cloud must not depend on the model")
	}
}

func TestBuildErrors(t *testing.T) {
	pi, cl := power.DefaultPi3B(), power.DefaultCloud()
	if _, err := Build(pi, cl, Spec{Period: 0}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := Build(pi, cl, Spec{Period: time.Minute, Placement: EdgeOnly}); err == nil {
		t.Error("period shorter than active tasks accepted (edge)")
	}
	if _, err := Build(pi, cl, Spec{Period: time.Minute, Placement: EdgeCloud}); err == nil {
		t.Error("period shorter than active tasks accepted (edge+cloud)")
	}
	if _, err := Build(pi, cl, Spec{Period: fiveMin, Model: Model(9)}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := Build(pi, cl, Spec{Period: fiveMin, Placement: Placement(9)}); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, err := Build(pi, cl, Spec{Period: fiveMin, Model: Model(9), Placement: EdgeCloud}); err == nil {
		t.Error("unknown model accepted (edge+cloud)")
	}
}

func TestLongerPeriodsOnlyStretchSleep(t *testing.T) {
	c5 := build(t, Spec{Period: fiveMin, Model: SVM, Placement: EdgeOnly})
	c60 := build(t, Spec{Period: time.Hour, Model: SVM, Placement: EdgeOnly})
	activeDiff := float64(c60.EdgeEnergy()-c5.EdgeEnergy()) -
		float64(power.DefaultPi3B().Sleep(55*time.Minute).Energy)
	if math.Abs(activeDiff) > 1e-9 {
		t.Fatalf("hourly cycle energy differs beyond the extra sleep: %v J", activeDiff)
	}
}

func TestStringers(t *testing.T) {
	if SVM.String() != "SVM" || CNN.String() != "CNN" || Model(7).String() == "" {
		t.Error("Model.String broken")
	}
	if EdgeOnly.String() != "edge" || EdgeCloud.String() != "edge+cloud" || Placement(7).String() == "" {
		t.Error("Placement.String broken")
	}
}

// TestCampaignMatchesSectionIV replays the 319-routine campaign.
func TestCampaignMatchesSectionIV(t *testing.T) {
	st, err := SimulateCampaignParallel(power.DefaultPi3B(), netsim.DefaultConfig(), 319, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Routines != 319 {
		t.Fatalf("routines = %d", st.Routines)
	}
	// Mean 1 m 29 s = 89 s (±3 s) and sigma ~3.5 s (1-7 s band).
	if !almostEq(st.MeanDuration.Seconds(), 89, 3) {
		t.Errorf("mean duration = %v, want ~89 s", st.MeanDuration)
	}
	if sd := st.SDDuration.Seconds(); sd < 1 || sd > 7 {
		t.Errorf("duration sigma = %v, want 1-7 s", sd)
	}
	// Mean power 2.14 W with tiny spread (paper: 0.009 W).
	if !almostEq(float64(st.MeanPower), 2.14, 0.02) {
		t.Errorf("mean power = %v, want 2.14 W", st.MeanPower)
	}
	if sd := float64(st.SDPower); sd > 0.05 {
		t.Errorf("power sigma = %v, want << 0.05 W", sd)
	}
	// Mean energy ~190 J.
	if !almostEq(float64(st.MeanEnergy), 190.1, 8) {
		t.Errorf("mean energy = %v, want ~190 J", st.MeanEnergy)
	}
}

func TestCampaignErrors(t *testing.T) {
	if _, err := SimulateCampaignParallel(power.DefaultPi3B(), netsim.DefaultConfig(), 0, 1); err == nil {
		t.Error("zero routines accepted")
	}
}

func TestRecordLedgerMirrorsTableII(t *testing.T) {
	spec := Spec{Period: 5 * time.Minute, Model: CNN, Placement: EdgeCloud}
	c, err := Build(power.DefaultPi3B(), power.DefaultCloud(), spec)
	if err != nil {
		t.Fatal(err)
	}
	lg := ledger.New()
	start := time.Date(2023, 4, 10, 6, 0, 0, 0, time.UTC)
	end := c.RecordLedger(lg, "cachan-1", start)
	if got := end.Sub(start); got != c.Duration() {
		t.Fatalf("end-start = %v, want cycle duration %v", got, c.Duration())
	}

	var edgeJ, cloudJ float64
	for _, e := range lg.Entries() {
		switch e.Device {
		case "edge":
			if e.Store != "battery" {
				t.Fatalf("edge entry not battery-bound: %+v", e)
			}
			edgeJ += e.Joules
		case "cloud":
			if e.Store != "" {
				t.Fatalf("grid-powered cloud entry bound to a store: %+v", e)
			}
			cloudJ += e.Joules
		}
	}
	if math.Abs(edgeJ-float64(c.EdgeEnergy())) > 1e-9 {
		t.Fatalf("edge ledger total %v J, cycle %v J", edgeJ, c.EdgeEnergy())
	}
	if math.Abs(cloudJ-float64(c.CloudEnergy())) > 1e-9 {
		t.Fatalf("cloud ledger total %v J, cycle %v J", cloudJ, c.CloudEnergy())
	}

	// Nil ledger still returns the advanced clock.
	if got := c.RecordLedger(nil, "h", start); got != end {
		t.Fatalf("nil-ledger end = %v, want %v", got, end)
	}
}
