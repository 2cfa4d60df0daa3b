package netsim

import (
	"testing"
	"time"

	"beesim/internal/faults"
	"beesim/internal/ledger"
	"beesim/internal/obs"
)

var chaosEpoch = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func totalOutage() faults.Plan {
	return faults.Plan{Link: faults.LinkFaults{
		Outages: []faults.Window{{StartS: 0, DurationS: 1e6}},
	}}
}

func armed(t *testing.T, cfg Config, plan faults.Plan, pol faults.RetryPolicy, m *obs.Registry) *Link {
	t.Helper()
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(plan, chaosEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachFaults(inj, pol, m); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSendAtNilInjectorMatchesSend: without an injector, SendAt is
// Send — same rng draw sequence, so interleaved calls on equal-seed
// links stay in lockstep.
func TestSendAtNilInjectorMatchesSend(t *testing.T) {
	a, _ := NewLink(DefaultConfig())
	b, _ := NewLink(DefaultConfig())
	for i := 0; i < 50; i++ {
		tr := a.Send(RoutinePayload())
		out := b.SendAt(chaosEpoch, RoutinePayload())
		if !out.Delivered || out.Attempts != 1 || out.RetryEnergy != 0 {
			t.Fatalf("nil-injector outcome carries fault state: %+v", out)
		}
		if out.Transfer != tr || out.TotalDuration != tr.Duration {
			t.Fatalf("nil-injector SendAt diverged from Send: %+v vs %+v", out.Transfer, tr)
		}
	}
	if a.inj != nil || b.inj != nil {
		t.Fatal("unarmed link reports faults")
	}
}

// TestSendAtNilInjectorAllocs: the fault-free path of SendAt must not
// allocate more than Send itself — arming the fault layer is free until
// a plan is actually attached.
func TestSendAtNilInjectorAllocs(t *testing.T) {
	a, _ := NewLink(DefaultConfig())
	b, _ := NewLink(DefaultConfig())
	sendAllocs := testing.AllocsPerRun(200, func() { a.Send(ScalarBatch) })
	sendAtAllocs := testing.AllocsPerRun(200, func() { b.SendAt(chaosEpoch, ScalarBatch) })
	if sendAtAllocs > sendAllocs {
		t.Fatalf("nil-injector SendAt allocates %.1f/op, Send %.1f/op", sendAtAllocs, sendAllocs)
	}
}

// TestZeroEnergyTransferNotLedgered is the regression for the latent
// double-count: a zero-duration or zero-power transfer used to be able
// to record a zero-energy ledger entry on the success path and again on
// the retry path. Both paths must skip entries that carry no joules.
func TestZeroEnergyTransferNotLedgered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxPower = 0 // radio draw below the measurement floor
	cfg.Sigma = 0

	// Plain Send: one transfer, zero energy, no entry.
	l, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lg := ledger.New()
	l.AttachLedger(lg, "h", func() time.Time { return chaosEpoch })
	if tr := l.Send(RoutinePayload()); tr.ExtraEnergy != 0 {
		t.Fatalf("zero-power link burned energy: %+v", tr)
	}
	if lg.Len() != 0 {
		t.Fatalf("zero-energy transfer ledgered %d entr(ies)", lg.Len())
	}

	// Retrying SendAt under a total outage: every attempt fails at zero
	// energy; none of them may appear in the ledger, and the delivered
	// retry on a recovering link may appear at most once.
	lg2 := ledger.New()
	pol := faults.DefaultRetryPolicy()
	l2 := armed(t, cfg, totalOutage(), pol, nil)
	l2.AttachLedger(lg2, "h", func() time.Time { return chaosEpoch })
	out := l2.SendAt(chaosEpoch, RoutinePayload())
	if out.Delivered || out.RetryEnergy != 0 {
		t.Fatalf("zero-power outage episode: %+v", out)
	}
	if lg2.Len() != 0 {
		t.Fatalf("zero-energy retries ledgered %d entr(ies)", lg2.Len())
	}

	// Sanity check the inverse: with real transmit power the same
	// episode records exactly one entry per failed attempt, no dupes.
	lg3 := ledger.New()
	l3 := armed(t, DefaultConfig(), totalOutage(), pol, nil)
	l3.AttachLedger(lg3, "h", func() time.Time { return chaosEpoch })
	l3.SendAt(chaosEpoch, RoutinePayload())
	if lg3.Len() != pol.MaxAttempts {
		t.Fatalf("powered retries ledgered %d entr(ies), want %d", lg3.Len(), pol.MaxAttempts)
	}
}

// TestSendAtRecoversAfterOutage: an outage covering the first attempts
// delays but does not kill the upload; the outcome accounts the failed
// attempts, the backoff waits and the delivered transfer.
func TestSendAtRecoversAfterOutage(t *testing.T) {
	pol := faults.RetryPolicy{
		MaxAttempts: 5, Base: 10 * time.Second, Max: 10 * time.Second,
		Multiplier: 1, JitterFrac: 0, AttemptTimeout: 5 * time.Second,
	}
	// Each failed attempt consumes setup (0.5 s) + timeout (5 s) + 10 s
	// backoff = 15.5 s; an 18 s outage eats the first two attempts.
	plan := faults.Plan{Link: faults.LinkFaults{
		Outages: []faults.Window{{StartS: 0, DurationS: 18}},
	}}
	m := obs.NewRegistry()
	l := armed(t, DefaultConfig(), plan, pol, m)
	out := l.SendAt(chaosEpoch, RoutinePayload())
	if !out.Delivered {
		t.Fatalf("upload died in a finite outage: %+v", out)
	}
	if out.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two eaten by the outage)", out.Attempts)
	}
	perAttempt := DefaultConfig().TxPower.Energy(DefaultConfig().SetupTime + pol.AttemptTimeout)
	if want := 2 * float64(perAttempt); float64(out.RetryEnergy) != want {
		t.Fatalf("retry energy = %v, want %g", out.RetryEnergy, want)
	}
	if out.TotalDuration <= out.Duration {
		t.Fatalf("total duration %v does not include the failed attempts (transfer %v)",
			out.TotalDuration, out.Duration)
	}
	snap := m.Snapshot()
	counters := map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters[MetricSendAttempts] != 3 || counters[MetricSendFailures] != 2 ||
		counters[MetricSendRetries] != 2 || counters[MetricSendDrops] != 0 {
		t.Fatalf("fault counters wrong: %+v", counters)
	}
}

// TestSendAtDeterminism: equal links, plans and instants produce equal
// outcomes.
func TestSendAtDeterminism(t *testing.T) {
	plan := faults.Plan{Seed: 9, Link: faults.LinkFaults{DropProb: 0.5}}
	pol := faults.DefaultRetryPolicy()
	a := armed(t, DefaultConfig(), plan, pol, nil)
	b := armed(t, DefaultConfig(), plan, pol, nil)
	for i := 0; i < 100; i++ {
		at := chaosEpoch.Add(time.Duration(i) * 10 * time.Minute)
		oa, ob := a.SendAt(at, RoutinePayload()), b.SendAt(at, RoutinePayload())
		if oa != ob {
			t.Fatalf("equal faulted links diverged at %v:\n%+v\n%+v", at, oa, ob)
		}
	}
}
