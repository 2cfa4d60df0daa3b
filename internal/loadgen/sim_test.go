package loadgen

import (
	"testing"
	"time"

	"beesim/internal/hive"
	"beesim/internal/hivenet"
	"beesim/internal/netsim"
	"beesim/internal/slo"
)

// simSpec is a small healthy fleet the simulator tests share.
func simSpec(t *testing.T) LoadSpec {
	t.Helper()
	s, err := ParseSpec([]byte(`{
	  "name": "sim", "seed": 7, "hives": 40, "wake_period_s": 300,
	  "horizon_s": 1800, "clip_s": 0.25, "phase_spread": 1, "shards": 2,
	  "server": {"max_inflight": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimulateAccountingInvariant(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	for _, scale := range []float64{1, 4} {
		res, err := Simulate(spec, evs, SimOptions{Servers: 2, RateScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		if res.Offered != spec.Hives*spec.WakesPerHive() {
			t.Fatalf("scale %v: offered %d", scale, res.Offered)
		}
		if res.Delivered+res.Lost != res.Offered {
			t.Fatalf("scale %v: delivered %d + lost %d != offered %d",
				scale, res.Delivered, res.Lost, res.Offered)
		}
		snap := res.Registry.Snapshot()
		if c, _ := snap.FindCounter(netsim.MetricUploadEpisodes); int(c) != res.Offered {
			t.Fatalf("scale %v: episode counter %v != offered %d", scale, c, res.Offered)
		}
		if c, _ := snap.FindCounter(netsim.MetricSendDrops); int(c) != res.Lost {
			t.Fatalf("scale %v: drop counter %v != lost %d", scale, c, res.Lost)
		}
		if c, _ := snap.FindCounter(hivenet.MetricUploads); int(c) != res.Delivered {
			t.Fatalf("scale %v: uploads counter %v != delivered %d", scale, c, res.Delivered)
		}
	}
}

func TestSimulateSaturationRejects(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	// One shard, budget 1, 8x load: the inflight budget must refuse
	// work, and delivery must degrade relative to the healthy probe.
	spec.Server.MaxInflight = 1
	hot, err := Simulate(spec, evs, SimOptions{Servers: 1, RateScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Rejected == 0 {
		t.Fatal("8x load on a budget-1 shard produced no rejects")
	}
	if hot.Lost == 0 {
		t.Fatal("8x load on a budget-1 shard lost nothing — retry budget cannot absorb that")
	}
	spec.Server.MaxInflight = 8
	cool, err := Simulate(spec, evs, SimOptions{Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cool.DeliveredFrac() <= hot.DeliveredFrac() {
		t.Fatalf("cool %.3f <= hot %.3f delivered", cool.DeliveredFrac(), hot.DeliveredFrac())
	}
	snap := hot.Registry.Snapshot()
	if c, _ := snap.FindCounter(hivenet.MetricAdmissionRejects); int(c) != hot.Rejected {
		t.Fatalf("reject counter %v != %d", c, hot.Rejected)
	}
	if h, ok := snap.FindHistogram(hivenet.MetricQueueDepth); !ok || h.Count == 0 {
		t.Fatal("queue-depth histogram missing or empty")
	}
}

func TestSimulateArchiveShed(t *testing.T) {
	spec := simSpec(t)
	spec.Server.MaxArchiveRecords = 10
	evs := Schedule(spec)
	res, err := Simulate(spec, evs, SimOptions{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*res.Delivered - 10
	if res.ArchiveShed != want {
		t.Fatalf("archive shed %d, want %d", res.ArchiveShed, want)
	}
}

func TestSimulateEnergyAndEntries(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	res, err := Simulate(spec, evs, SimOptions{Servers: 2, NeedEntries: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeJ <= 0 || res.ServerJ <= 0 {
		t.Fatalf("energy: edge %v server %v", res.EdgeJ, res.ServerJ)
	}
	// One radio entry per episode, one server entry per delivery.
	if want := res.Offered + res.Delivered; len(res.Entries) != want {
		t.Fatalf("%d entries, want %d", len(res.Entries), want)
	}
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i].T.Before(res.Entries[i-1].T) {
			t.Fatalf("entries out of time order at %d", i)
		}
	}

	// The planner books each delivery at what the live server charges
	// for one upload.
	servers, addrs, _ := bootShards(t, spec, 1)
	agentCfg := hivenet.DefaultAgentConfig("energy-probe")
	agentCfg.ClipSeconds = spec.ClipS
	agent, err := hivenet.Dial(addrs[0], agentCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.RunCycle(hive.QueenPresent, 0.6, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	live := servers[0].Stats()
	if live.Uploads != 1 {
		t.Fatalf("live server counted %d uploads, want 1", live.Uploads)
	}
	if got, want := res.ServerJ/float64(res.Delivered), float64(live.BurstEnergy); got != want {
		t.Fatalf("planner books %v J per upload, live server %v J", got, want)
	}
}

func TestPlanFindsMinimalServers(t *testing.T) {
	spec := simSpec(t)
	evs := Schedule(spec)
	sloSpec, err := slo.ParseSpec([]byte(`{
	  "name": "t", "objectives": [
	    {"name": "delivery", "kind": "availability",
	     "total_metric": "netsim_upload_episodes_total",
	     "bad_metric": "netsim_send_drops_total", "min_ratio": 0.95}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Plan(spec, evs, sloSpec, PlanOptions{MaxServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinServers < 1 || rep.MinServers > 8 {
		t.Fatalf("min servers %d", rep.MinServers)
	}
	// The sized deployment passes; one server fewer (if any) fails.
	if !rep.Report.Pass() {
		t.Fatal("sized deployment breaches its own SLO")
	}
	if rep.MinServers > 1 {
		below, err := Simulate(spec, evs, SimOptions{Servers: rep.MinServers - 1})
		if err != nil {
			t.Fatal(err)
		}
		in := slo.Input{Snapshot: below.Registry.Snapshot(), Window: seconds(below.HorizonS)}
		r, err := slo.Evaluate(sloSpec, in)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pass() {
			t.Fatalf("%d servers also pass; binary search overshot", rep.MinServers-1)
		}
	}
	if len(rep.Knee) != len(DefaultKneeMultipliers) {
		t.Fatalf("knee has %d points", len(rep.Knee))
	}
}
