package power

import (
	"math"
	"testing"
	"time"

	"beesim/internal/ledger"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTaskPower(t *testing.T) {
	task := NewTask("x", 190.1, 89.0)
	if !almostEq(float64(task.Power()), 2.136, 0.001) {
		t.Fatalf("routine power = %v, want ~2.14 W", task.Power())
	}
}

func TestSum(t *testing.T) {
	p := DefaultPi3B()
	tasks := []Task{p.WakeAndCollect(), p.SendAudio(), p.Shutdown()}
	e, d := Sum(tasks)
	if !almostEq(float64(e), 131.8+37.3+21.0, 1e-9) {
		t.Fatalf("sum energy = %v", e)
	}
	if !almostEq(d.Seconds(), 64.0+15.0+9.9, 1e-9) {
		t.Fatalf("sum duration = %v", d)
	}
}

func TestPaperTaskConstants(t *testing.T) {
	p := DefaultPi3B()
	c := DefaultCloud()
	cases := []struct {
		task    Task
		joules  float64
		seconds float64
	}{
		{p.WakeAndCollect(), 131.8, 64.0},
		{p.InferSVM(), 98.9, 46.1},
		{p.InferCNN(), 94.8, 37.6},
		{p.SendResults(), 3.0, 1.5},
		{p.SendAudio(), 37.3, 15.0},
		{p.Shutdown(), 21.0, 9.9},
		{c.Receive(), 1032, 15.0},
		{c.ExecSVM(), 6.3, 0.1},
		{c.ExecCNN(), 108, 1.0},
	}
	for _, tc := range cases {
		if !almostEq(float64(tc.task.Energy), tc.joules, 1e-9) {
			t.Errorf("%s energy = %v, want %v", tc.task.Name, tc.task.Energy, tc.joules)
		}
		if !almostEq(tc.task.Duration.Seconds(), tc.seconds, 1e-9) {
			t.Errorf("%s duration = %v, want %v s", tc.task.Name, tc.task.Duration, tc.seconds)
		}
	}
}

func TestSleepTask(t *testing.T) {
	p := DefaultPi3B()
	s := p.Sleep(time.Duration(178.5 * float64(time.Second)))
	// Table I's sleep row: 111.6 J over 178.5 s at exactly 0.625 W.
	if !almostEq(float64(s.Energy), 111.56, 0.01) {
		t.Fatalf("sleep energy = %v", s.Energy)
	}
}

func TestCloudIdlePower(t *testing.T) {
	c := DefaultCloud()
	idle := c.Idle(time.Duration(211.1 * float64(time.Second)))
	// Table II: 9415 J over 211.1 s.
	if !almostEq(float64(idle.Energy), 9415, 5) {
		t.Fatalf("idle energy = %v, want ~9415 J", idle.Energy)
	}
	if !almostEq(float64(c.Receive().Power()), 68.8, 0.01) {
		t.Fatalf("receive power = %v, want 68.8 W", c.Receive().Power())
	}
}

func TestCloudAboveIdle(t *testing.T) {
	c := DefaultCloud()
	// Table II: receiving costs 1032 J over 15 s and the SVM 6.3 J over
	// 0.1 s, against a 44.6 W idle draw: 363 J + 1.84 J per upload.
	if got := float64(c.AboveIdle(c.Receive())); !almostEq(got, 363, 1e-9) {
		t.Fatalf("receive above idle = %v, want 363 J", got)
	}
	if got := float64(c.AboveIdle(c.ExecSVM())); !almostEq(got, 1.84, 1e-9) {
		t.Fatalf("SVM execute above idle = %v, want 1.84 J", got)
	}
}

func TestAveragePowerFigure3Anchors(t *testing.T) {
	p := DefaultPi3B()
	// 5-minute wake-up: the paper measures 1.19 W.
	if got := p.AveragePower(5 * time.Minute); !almostEq(float64(got), 1.19, 0.01) {
		t.Fatalf("avg power @5min = %v, want 1.19 W", got)
	}
	// Long periods converge to the ~0.62 W sleep power.
	if got := p.AveragePower(120 * time.Minute); !almostEq(float64(got), 0.625, 0.05) {
		t.Fatalf("avg power @120min = %v, want ~0.62 W", got)
	}
}

func TestAveragePowerMonotoneDecreasing(t *testing.T) {
	p := DefaultPi3B()
	periods := []time.Duration{5, 10, 15, 30, 60, 120}
	prev := math.Inf(1)
	for _, m := range periods {
		got := float64(p.AveragePower(m * time.Minute))
		if got >= prev {
			t.Fatalf("avg power not decreasing at %d min: %v >= %v", m, got, prev)
		}
		prev = got
	}
}

func TestAveragePowerSaturatesBelowRoutine(t *testing.T) {
	p := DefaultPi3B()
	short := p.AveragePower(30 * time.Second)
	atRoutine := p.AveragePower(89 * time.Second)
	if short != atRoutine {
		t.Fatalf("saturated avg power differs: %v vs %v", short, atRoutine)
	}
	if float64(short) < 2 {
		t.Fatalf("saturated power = %v, want > 2 W (always active)", short)
	}
}

func TestPiZeroEnergy(t *testing.T) {
	z := DefaultPiZero()
	e := z.ActivePower.Energy(24 * time.Hour)
	// 0.75 W * 86400 s = 64.8 kJ = 18 Wh/day: a power bank alone lasts
	// only a few days, consistent with the paper's autonomy remarks.
	if !almostEq(float64(e), 64800, 1e-6) {
		t.Fatalf("daily monitor energy = %v", e)
	}
}

func TestInferenceModelCalibration(t *testing.T) {
	m := DefaultEdgeInference()
	// 60 MFLOPs (reference CNN at 100x100) must cost ~Table I's CNN row.
	e, d := m.Cost(60e6)
	if !almostEq(float64(e), 94.8, 0.5) {
		t.Fatalf("CNN 100x100 edge energy = %v, want ~94.8 J", e)
	}
	if !almostEq(d.Seconds(), 37.1, 1.0) {
		t.Fatalf("CNN 100x100 edge duration = %v, want ~37 s", d)
	}
}

func TestInferenceModelQuadraticInSide(t *testing.T) {
	// FLOPs scale with pixel count for a fixed conv stack, so energy as a
	// function of side length is quadratic: E(2s) - fixed = 4*(E(s)-fixed).
	m := DefaultEdgeInference()
	flopsAt := func(side float64) float64 { return 6000 * side * side } // 60 MFLOPs at side 100
	e1, _ := m.Cost(flopsAt(100))
	e2, _ := m.Cost(flopsAt(200))
	varPart1 := float64(e1 - m.FixedEnergy)
	varPart2 := float64(e2 - m.FixedEnergy)
	if !almostEq(varPart2/varPart1, 4, 1e-9) {
		t.Fatalf("energy ratio = %v, want 4 (quadratic)", varPart2/varPart1)
	}
}

func TestInferenceModelNegativeFlops(t *testing.T) {
	m := DefaultEdgeInference()
	e, d := m.Cost(-5)
	if e != m.FixedEnergy || d != m.FixedDuration {
		t.Fatalf("negative flops cost = %v/%v, want fixed only", e, d)
	}
}

func TestTaskString(t *testing.T) {
	s := DefaultPi3B().WakeAndCollect().String()
	if s == "" || len(s) < 20 {
		t.Fatalf("task string too short: %q", s)
	}
}

func TestRecordTasksAdvancesClockAndAttributes(t *testing.T) {
	pi := DefaultPi3B()
	tasks := []Task{pi.WakeAndCollect(), pi.InferCNN(), pi.SendResults()}
	lg := ledger.New()
	at := time.Date(2023, 4, 10, 6, 0, 0, 0, time.UTC)
	end := RecordTasks(lg, at, "cachan-1", "edge", "pi3b", "battery", tasks)

	_, wantDur := Sum(tasks)
	if got := end.Sub(at); got != wantDur {
		t.Fatalf("clock advanced %v, want %v", got, wantDur)
	}
	entries := lg.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Task != tasks[i].Name || e.Dir != ledger.Consume ||
			e.Joules != float64(tasks[i].Energy) || e.Store != "battery" {
			t.Fatalf("entry %d = %+v, want task %v", i, e, tasks[i])
		}
	}
	// Each entry's timestamp is the task's start, in sequence.
	if entries[1].T != at.Add(tasks[0].Duration) {
		t.Fatalf("entry 1 at %v, want %v", entries[1].T, at.Add(tasks[0].Duration))
	}

	// Nil ledger: same clock arithmetic, no entries.
	if got := RecordTasks(nil, at, "h", "edge", "pi3b", "", tasks); got != end {
		t.Fatalf("nil-ledger clock = %v, want %v", got, end)
	}
}
