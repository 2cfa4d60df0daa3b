package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"beesim/internal/rng"
	"beesim/internal/routine"
	"beesim/internal/units"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func cnnService(t *testing.T) Service {
	t.Helper()
	svc, err := NewService(routine.CNN, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func svmService(t *testing.T) Service {
	t.Helper()
	svc, err := NewService(routine.SVM, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewServiceCosts(t *testing.T) {
	svc := cnnService(t)
	if !almostEq(float64(svc.EdgeOnlyCycle), 367.5, 0.2) {
		t.Errorf("CNN edge-only cycle = %v, want 367.5 J (Table I)", svc.EdgeOnlyCycle)
	}
	if !almostEq(float64(svc.EdgeCloudCycle), 322.0, 0.2) {
		t.Errorf("CNN edge+cloud cycle = %v, want 322.0 J (Table II)", svc.EdgeCloudCycle)
	}
	if svc.ReceiveDuration != 15*time.Second || svc.ExecDuration != time.Second {
		t.Errorf("cloud task durations = %v/%v", svc.ReceiveDuration, svc.ExecDuration)
	}
}

func TestSlotsPerCycle(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	slots, err := spec.SlotsPerCycle(svc, Losses{})
	if err != nil {
		t.Fatal(err)
	}
	// 300 s / (15 s receive + 1 s exec) = 18 slots.
	if slots != 18 {
		t.Fatalf("slots = %d, want 18", slots)
	}
	cap, err := spec.Capacity(svc, Losses{})
	if err != nil {
		t.Fatal(err)
	}
	if cap != 180 {
		t.Fatalf("capacity = %d, want 180", cap)
	}
}

func TestSlotsPerCycleWithTransferPenalty(t *testing.T) {
	// Loss B at cap 10: slot = 15 + 10*1.5 + 1 = 31 s -> 9 slots, 90 cap.
	svc := cnnService(t)
	spec := DefaultServer(10)
	l := PaperLosses(false, true, false)
	slots, err := spec.SlotsPerCycle(svc, l)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 9 {
		t.Fatalf("slots with loss B = %d, want 9", slots)
	}
}

func TestSlotsErrorWhenSlotTooLong(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(300) // 15 + 450 + 1 s > 300 s period
	l := PaperLosses(false, true, false)
	if _, err := spec.SlotsPerCycle(svc, l); err == nil {
		t.Fatal("oversize slot accepted")
	}
}

func TestAllocateSequentialPolicy(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	alloc, err := Allocate(25, spec, svc, Losses{}, FillSequential)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumServers() != 1 {
		t.Fatalf("servers = %d, want 1", alloc.NumServers())
	}
	slots := alloc.Servers[0].Slots
	if slots[0] != 10 || slots[1] != 10 || slots[2] != 5 || slots[3] != 0 {
		t.Fatalf("sequential fill = %v", slots[:4])
	}
}

func TestAllocateBalancedPolicy(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	alloc, err := Allocate(25, spec, svc, Losses{}, FillBalanced)
	if err != nil {
		t.Fatal(err)
	}
	slots := alloc.Servers[0].Slots
	// 25 over 18 slots: 7 slots of 2, 11 of 1.
	min, max := slots[0], slots[0]
	total := 0
	for _, n := range slots {
		total += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if total != 25 || max-min > 1 {
		t.Fatalf("balanced fill = %v (total %d)", slots, total)
	}
}

func TestAllocateMultiServer(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	alloc, err := Allocate(400, spec, svc, Losses{}, FillSequential)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 180: 400 clients need 3 servers (180+180+40).
	if alloc.NumServers() != 3 {
		t.Fatalf("servers = %d, want 3", alloc.NumServers())
	}
	if alloc.Servers[0].Clients() != 180 || alloc.Servers[2].Clients() != 40 {
		t.Fatalf("fill = %d/%d/%d", alloc.Servers[0].Clients(),
			alloc.Servers[1].Clients(), alloc.Servers[2].Clients())
	}
}

func TestAllocateErrors(t *testing.T) {
	svc := cnnService(t)
	if _, err := Allocate(0, DefaultServer(10), svc, Losses{}, FillSequential); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := Allocate(5, DefaultServer(0), svc, Losses{}, FillSequential); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Allocate(5, DefaultServer(10), svc, Losses{}, FillPolicy(9)); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestPropertyAllocationTotality: every client is placed exactly once, no
// slot exceeds capacity, and the server count is the ceiling division.
func TestPropertyAllocationTotality(t *testing.T) {
	svc := cnnService(t)
	f := func(nRaw uint16, capRaw, policyRaw uint8) bool {
		n := int(nRaw)%3000 + 1
		maxPar := int(capRaw)%40 + 1
		policy := FillPolicy(int(policyRaw) % 2)
		spec := DefaultServer(maxPar)
		alloc, err := Allocate(n, spec, svc, Losses{}, policy)
		if err != nil {
			return false
		}
		capacity, err := spec.Capacity(svc, Losses{})
		if err != nil {
			return false
		}
		total := 0
		for _, srv := range alloc.Servers {
			for _, cnt := range srv.Slots {
				if cnt < 0 || cnt > maxPar {
					return false
				}
				total += cnt
			}
		}
		wantServers := (n + capacity - 1) / capacity
		return total == n && alloc.NumServers() == wantServers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFigure6ServerFloor: the fully subscribed server's per-client cost
// converges to ~116 J (paper) and the best end-to-end cost to ~438 J.
func TestFigure6ServerFloor(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	cost, err := SimulateEdgeCloud(180, spec, svc, Losses{}, FillSequential, nil)
	if err != nil {
		t.Fatal(err)
	}
	perServer := float64(cost.ServerEnergy) / float64(cost.Clients)
	if !almostEq(perServer, 116, 2) {
		t.Errorf("full-server cost = %.1f J/client, want ~116 J", perServer)
	}
	if !almostEq(float64(cost.PerClient()), 438, 3) {
		t.Errorf("best end-to-end = %.1f J/client, want ~438 J", float64(cost.PerClient()))
	}
	if !almostEq(float64(cost.EdgeEnergy)/float64(cost.Clients), 322, 0.5) {
		t.Errorf("edge share = %.1f, want 322 J", float64(cost.EdgeEnergy)/float64(cost.Clients))
	}
}

// TestFigure6EdgeFlat: the edge-only per-client cost is independent of
// fleet size.
func TestFigure6EdgeFlat(t *testing.T) {
	svc := cnnService(t)
	for _, n := range []int{10, 50, 200, 400} {
		cost, err := SimulateEdgeOnly(n, svc, Losses{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(float64(cost.PerClient()), 367.5, 0.2) {
			t.Fatalf("edge-only per-client at n=%d: %v", n, cost.PerClient())
		}
	}
}

// minParallelForViability returns the smallest per-slot capacity at which
// a fully used server makes the edge+cloud scenario at least as efficient
// as the edge scenario — the paper's "26 clients" tipping point.
func minParallelForViability(svc Service, idle units.Watts, period time.Duration) (int, error) {
	margin := svc.EdgeOnlyCycle - svc.EdgeCloudCycle
	if margin <= 0 {
		return 0, errors.New("core: edge+cloud edge cost not below edge-only cost")
	}
	for cap := 1; cap <= 10000; cap++ {
		spec := ServerSpec{IdlePower: idle, MaxParallel: cap, Period: period}
		capacity, err := spec.Capacity(svc, Losses{})
		if err != nil {
			continue
		}
		alloc, err := Allocate(capacity, spec, svc, Losses{}, FillSequential)
		if err != nil {
			return 0, err
		}
		perClient := float64(alloc.TotalServerEnergy()) / float64(capacity)
		if units.Joules(perClient) <= margin {
			return cap, nil
		}
	}
	return 0, errors.New("core: no viable capacity below 10000")
}

// TestTippingPoint26: the paper's "26 clients are the tipping point when
// the edge+cloud scenario can become more energy efficient".
func TestTippingPoint26(t *testing.T) {
	svc := cnnService(t)
	min, err := minParallelForViability(svc, 44.6, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if min != 26 {
		t.Fatalf("viability tipping point = %d clients/slot, want 26", min)
	}
}

// TestFigure7Crossovers checks the cap-35 milestones: crossover near 406
// clients, the 12.5 J peak advantage at 630, and a permanent win from
// ~803 clients.
func TestFigure7Crossovers(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(35)

	perClientDiff := func(n int) float64 {
		ec, err := SimulateEdgeCloud(n, spec, svc, Losses{}, FillSequential, nil)
		if err != nil {
			t.Fatal(err)
		}
		edge, err := SimulateEdgeOnly(n, svc, Losses{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return float64(edge.PerClient() - ec.PerClient()) // >0: edge+cloud wins
	}

	// First crossover: within a few clients of 406.
	first := 0
	for n := 100; n <= 600; n++ {
		if perClientDiff(n) > 0 {
			first = n
			break
		}
	}
	if first < 400 || first > 412 {
		t.Errorf("first crossover at %d clients, want ~406", first)
	}

	// Peak advantage at 630 clients (one full server), ~12.5 J.
	best, bestN := -1.0, 0
	for n := 100; n <= 700; n++ {
		if d := perClientDiff(n); d > best {
			best, bestN = d, n
		}
	}
	if bestN != 630 {
		t.Errorf("peak advantage at %d clients, want 630", bestN)
	}
	if !almostEq(best, 12.5, 1.0) {
		t.Errorf("peak advantage = %.2f J, want ~12.5 J", best)
	}

	// Permanent win from ~803 clients (paper). Our exact edge margin is
	// 45.44 J vs the paper's rounded 45.5 J, which shifts the boundary to
	// 815 — a 1.5% difference documented in EXPERIMENTS.md.
	permanent := 0
	for n := 631; n <= 2000; n++ {
		if perClientDiff(n) > 0 {
			if permanent == 0 {
				permanent = n
			}
		} else {
			permanent = 0
		}
	}
	if permanent < 795 || permanent > 820 {
		t.Errorf("permanent win from %d clients, want ~803-815", permanent)
	}
}

// TestLossASaturation: with loss A the full-server cost converges to
// ~186 J/client (paper Figure 8a).
func TestLossASaturation(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	l := PaperLosses(true, false, false)
	cost, err := SimulateEdgeCloud(180, spec, svc, l, FillSequential, nil)
	if err != nil {
		t.Fatal(err)
	}
	perServer := float64(cost.ServerEnergy) / float64(cost.Clients)
	// Compounding 10% on the 5 clients beyond cap-5: x1.1^5 = 1.61.
	if !almostEq(perServer, 186, 4) {
		t.Errorf("loss-A full-server cost = %.1f J/client, want ~186 J", perServer)
	}
}

// TestLossBNeedsMoreServers: the paper's example — 350 clients need 4
// servers under the transfer penalty versus 2 without.
func TestLossBNeedsMoreServers(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	noLoss, err := SimulateEdgeCloud(350, spec, svc, Losses{}, FillSequential, nil)
	if err != nil {
		t.Fatal(err)
	}
	withB, err := SimulateEdgeCloud(350, spec, svc, PaperLosses(false, true, false), FillSequential, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noLoss.Servers != 2 {
		t.Errorf("no-loss servers = %d, want 2", noLoss.Servers)
	}
	if withB.Servers != 4 {
		t.Errorf("loss-B servers = %d, want 4", withB.Servers)
	}
	// And the per-client server cost rises above the no-loss floor.
	if float64(withB.ServerEnergy)/float64(withB.Clients) <= float64(noLoss.ServerEnergy)/float64(noLoss.Clients) {
		t.Error("loss B did not increase the per-client server cost")
	}
}

// TestLossBFullServerCost: the minimum per-client server cost under loss
// B lands in the paper's announced region (~212 J; our accounting of the
// longer receive burst gives ~228 J — same shape, see EXPERIMENTS.md).
func TestLossBFullServerCost(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	l := PaperLosses(false, true, false)
	cap, err := spec.Capacity(svc, l)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := SimulateEdgeCloud(cap, spec, svc, l, FillSequential, nil)
	if err != nil {
		t.Fatal(err)
	}
	perServer := float64(cost.ServerEnergy) / float64(cost.Clients)
	if perServer < 200 || perServer < 116 || perServer > 240 {
		t.Errorf("loss-B floor = %.1f J/client, want in the ~212-230 region", perServer)
	}
}

// TestLossCClientLoss: surviving clients are ~90% of the fleet and the
// per-provisioned-client energy drops accordingly.
func TestLossCClientLoss(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	l := PaperLosses(false, false, true)
	r := rng.New(42)
	var survived, total int
	var perClient float64
	const reps = 200
	for i := 0; i < reps; i++ {
		cost, err := SimulateEdgeCloud(300, spec, svc, l, FillSequential, r)
		if err != nil {
			t.Fatal(err)
		}
		survived += cost.Active
		total += cost.Clients
		perClient += float64(cost.PerClient())
	}
	frac := float64(survived) / float64(total)
	if !almostEq(frac, 0.9, 0.01) {
		t.Errorf("survival fraction = %v, want ~0.9", frac)
	}
	noLoss, err := SimulateEdgeCloud(300, spec, svc, Losses{}, FillSequential, nil)
	if err != nil {
		t.Fatal(err)
	}
	if perClient/reps >= float64(noLoss.PerClient()) {
		t.Error("loss C did not lower the apparent per-client energy")
	}
}

func TestLossCNeedsRandSource(t *testing.T) {
	svc := cnnService(t)
	l := PaperLosses(false, false, true)
	if _, err := SimulateEdgeCloud(10, DefaultServer(10), svc, l, FillSequential, nil); err == nil {
		t.Error("loss C without RNG accepted")
	}
	if _, err := SimulateEdgeOnly(10, svc, l, nil); err == nil {
		t.Error("edge-only loss C without RNG accepted")
	}
}

func TestSimulateErrors(t *testing.T) {
	svc := cnnService(t)
	if _, err := SimulateEdgeCloud(0, DefaultServer(10), svc, Losses{}, FillSequential, nil); err == nil {
		t.Error("zero clients accepted (edge+cloud)")
	}
	if _, err := SimulateEdgeOnly(-1, svc, Losses{}, nil); err == nil {
		t.Error("negative clients accepted (edge)")
	}
}

func TestRecommend(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(35)
	small, err := Recommend(50, spec, svc, Losses{})
	if err != nil {
		t.Fatal(err)
	}
	if small.Placement != routine.EdgeOnly {
		t.Errorf("50 clients recommended %v, want edge", small.Placement)
	}
	big, err := Recommend(1000, spec, svc, Losses{})
	if err != nil {
		t.Fatal(err)
	}
	if big.Placement != routine.EdgeCloud {
		t.Errorf("1000 clients recommended %v, want edge+cloud", big.Placement)
	}
	if big.Servers < 1 {
		t.Error("recommendation lost the server count")
	}
	if big.Margin() <= 0 {
		t.Error("margin must be positive")
	}
}

// TestBalancedFillAvoidsSaturation is the ablation: under loss A, the
// balanced policy dodges the compounding penalty the sequential policy
// pays on its packed slots.
func TestBalancedFillAvoidsSaturation(t *testing.T) {
	svc := cnnService(t)
	spec := DefaultServer(10)
	l := PaperLosses(true, false, false)
	// 90 clients on one server: sequential packs 9 slots of 10 (penalized),
	// balanced spreads 5 per slot (below the saturation threshold).
	seq, err := Allocate(90, spec, svc, l, FillSequential)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := Allocate(90, spec, svc, l, FillBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if bal.TotalServerEnergy() >= seq.TotalServerEnergy() {
		t.Fatalf("balanced (%v) not below sequential (%v) under loss A",
			bal.TotalServerEnergy(), seq.TotalServerEnergy())
	}
}

// TestSVMServiceMirror: the SVM variant differs only in the tiny exec
// task; crossovers stay in the same region.
func TestSVMServiceMirror(t *testing.T) {
	svc := svmService(t)
	if !almostEq(float64(svc.EdgeOnlyCycle), 366.3, 0.2) {
		t.Errorf("SVM edge-only = %v, want 366.3", svc.EdgeOnlyCycle)
	}
	spec := DefaultServer(10)
	slots, err := spec.SlotsPerCycle(svc, Losses{})
	if err != nil {
		t.Fatal(err)
	}
	// 300 / 15.1 = 19 slots for the SVM service.
	if slots != 19 {
		t.Fatalf("SVM slots = %d, want 19", slots)
	}
}

// TestEnergyAdditivity: fleet totals decompose exactly into edge and
// server parts.
func TestEnergyAdditivity(t *testing.T) {
	svc := cnnService(t)
	cost, err := SimulateEdgeCloud(250, DefaultServer(10), svc, Losses{}, FillSequential, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total() != cost.EdgeEnergy+cost.ServerEnergy {
		t.Fatal("total != edge + server")
	}
	wantEdge := 322.0 * 250
	if !almostEq(float64(cost.EdgeEnergy), wantEdge, 20) {
		t.Fatalf("edge fleet energy = %v, want ~%v", cost.EdgeEnergy, wantEdge)
	}
}

func TestPerClientZeroGuard(t *testing.T) {
	var c CycleCost
	if c.PerClient() != 0 {
		t.Fatal("zero-client cost division not guarded")
	}
	_ = units.Joules(0)
}
