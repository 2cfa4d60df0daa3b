package services

import (
	"math"
	"testing"
	"time"

	"beesim/internal/core"
	"beesim/internal/power"
	"beesim/internal/routine"
)

func powerPi() power.Pi3B { return power.DefaultPi3B() }

func TestCatalogCoversAllKinds(t *testing.T) {
	for _, k := range AllKinds() {
		p, err := Catalog(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if p.Kind != k {
			t.Errorf("%v: profile kind mismatch", k)
		}
		if p.Payload <= 0 || p.EdgeFLOPs <= 0 || p.MinPeriod <= 0 {
			t.Errorf("%v: incomplete profile %+v", k, p)
		}
		if p.CloudExec.Energy <= 0 || p.CloudExec.Duration <= 0 {
			t.Errorf("%v: missing cloud exec", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if _, err := Catalog(Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestQueenDetectionMatchesPaperCalibration(t *testing.T) {
	p, err := Catalog(QueenDetection)
	if err != nil {
		t.Fatal(err)
	}
	e, d := p.EdgeCost()
	// Table I's CNN row: 94.8 J / 37.6 s.
	if math.Abs(float64(e)-94.8) > 1 {
		t.Errorf("edge cost = %v, want ~94.8 J", e)
	}
	if math.Abs(d.Seconds()-37.6) > 1.5 {
		t.Errorf("edge duration = %v, want ~37.6 s", d)
	}
	svc, err := p.OrchestrationService(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The derived per-cycle totals should land near the measured tables
	// (the payload here is the single audio clip, as in Table II).
	if math.Abs(float64(svc.EdgeOnlyCycle)-367.5) > 10 {
		t.Errorf("edge-only cycle = %v, want ~367.5 J", svc.EdgeOnlyCycle)
	}
	if math.Abs(float64(svc.EdgeCloudCycle)-310) > 15 {
		t.Errorf("edge+cloud cycle = %v, want ~300-320 J", svc.EdgeCloudCycle)
	}
}

func TestHeavierServicesCostMoreAtTheEdge(t *testing.T) {
	var prev float64
	for _, k := range []Kind{SwarmPrediction, QueenDetection, PollenDetection, BeeCounting} {
		p, err := Catalog(k)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := p.EdgeCost()
		if float64(e) <= prev {
			t.Fatalf("%v edge cost %v not above the previous service", k, e)
		}
		prev = float64(e)
	}
}

func TestOrchestrationServicePeriodGuards(t *testing.T) {
	p, err := Catalog(SwarmPrediction)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OrchestrationService(5 * time.Minute); err == nil {
		t.Error("period below MinPeriod accepted")
	}
	if _, err := p.OrchestrationService(30 * time.Minute); err != nil {
		t.Errorf("valid period rejected: %v", err)
	}
}

func TestHeavyServicesPreferCloudSooner(t *testing.T) {
	// The heavier the edge inference, the fewer clients are needed for
	// the cloud to win. Compare the minimum winning fleet of queen
	// detection vs bee counting at cap 35.
	spec := core.DefaultServer(35)
	minWin := func(k Kind) int {
		p, err := Catalog(k)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := p.OrchestrationService(10 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for n := 10; n <= 4000; n += 10 {
			rec, err := core.Recommend(n, spec, svc, core.Losses{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Placement == routine.EdgeCloud {
				return n
			}
		}
		return -1
	}
	queen := minWin(QueenDetection)
	counting := minWin(BeeCounting)
	if counting == -1 {
		t.Fatal("bee counting never preferred the cloud")
	}
	if queen != -1 && counting >= queen {
		t.Fatalf("bee counting crossover (%d) not earlier than queen detection (%d)",
			counting, queen)
	}
}

func TestBundleValidate(t *testing.T) {
	good := Bundle{Kinds: []Kind{QueenDetection, PollenDetection}, Period: 10 * time.Minute}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	cases := []Bundle{
		{Kinds: nil, Period: 10 * time.Minute},
		{Kinds: []Kind{QueenDetection}, Period: 0},
		{Kinds: []Kind{QueenDetection, QueenDetection}, Period: 10 * time.Minute},
		{Kinds: []Kind{SwarmPrediction}, Period: 5 * time.Minute}, // below MinPeriod
		{Kinds: []Kind{Kind(42)}, Period: time.Hour},
	}
	for i, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("bad bundle %d accepted", i)
		}
	}
}

func TestPlanBundleSmallFleetStaysAtEdge(t *testing.T) {
	b := Bundle{Kinds: []Kind{QueenDetection, SwarmPrediction}, Period: 30 * time.Minute}
	plan, err := PlanBundle(b, 5, core.DefaultServer(35), core.Losses{})
	if err != nil {
		t.Fatal(err)
	}
	for k, placement := range plan.Decisions {
		if placement != routine.EdgeOnly {
			t.Errorf("%v placed at %v for a 5-hive fleet", k, placement)
		}
	}
	if plan.CloudShare != 0 {
		t.Errorf("cloud share = %v for an all-edge plan", plan.CloudShare)
	}
	if plan.EdgeEnergy <= 0 {
		t.Error("plan lost the edge energy")
	}
}

func TestPlanBundleLargeFleetOffloadsHeavyServices(t *testing.T) {
	b := Bundle{
		Kinds:  []Kind{QueenDetection, PollenDetection, BeeCounting, SwarmPrediction},
		Period: 30 * time.Minute,
	}
	plan, err := PlanBundle(b, 3000, core.DefaultServer(35), core.Losses{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Decisions[BeeCounting] != routine.EdgeCloud {
		t.Error("bee counting not offloaded at 3000 hives")
	}
	if plan.CloudShare <= 0 {
		t.Error("no cloud share despite offloading")
	}
	if plan.TotalPerClient() != plan.EdgeEnergy+plan.CloudShare {
		t.Error("total != edge + cloud share")
	}
}

func TestPlanBundleMixedBeatsAllEdgeForLargeFleets(t *testing.T) {
	// The planner's per-service decisions must not cost more than the
	// naive all-edge bundle.
	b := Bundle{
		Kinds:  []Kind{QueenDetection, PollenDetection, BeeCounting},
		Period: 30 * time.Minute,
	}
	plan, err := PlanBundle(b, 3000, core.DefaultServer(35), core.Losses{})
	if err != nil {
		t.Fatal(err)
	}
	// All-edge cost: collect + all inferences + send results + shutdown,
	// plus the sleep fill.
	pi := powerPi()
	allEdge := float64(pi.WakeAndCollect().Energy + pi.SendResults().Energy + pi.Shutdown().Energy)
	activeDur := pi.WakeAndCollect().Duration + pi.SendResults().Duration + pi.Shutdown().Duration
	for _, k := range b.Kinds {
		p, err := Catalog(k)
		if err != nil {
			t.Fatal(err)
		}
		e, d := p.EdgeCost()
		allEdge += float64(e)
		activeDur += d
	}
	allEdge += float64(pi.Sleep(b.Period - activeDur).Energy)
	if float64(plan.TotalPerClient()) > allEdge {
		t.Fatalf("planned total %v above the naive all-edge total %v",
			plan.TotalPerClient(), allEdge)
	}
}

func TestPlanBundleErrors(t *testing.T) {
	b := Bundle{Kinds: []Kind{QueenDetection}, Period: 10 * time.Minute}
	if _, err := PlanBundle(b, 0, core.DefaultServer(10), core.Losses{}); err == nil {
		t.Error("zero hives accepted")
	}
	bad := Bundle{Kinds: nil, Period: 10 * time.Minute}
	if _, err := PlanBundle(bad, 10, core.DefaultServer(10), core.Losses{}); err == nil {
		t.Error("invalid bundle accepted")
	}
}
