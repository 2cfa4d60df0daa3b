package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"beesim/internal/routine"
	"beesim/internal/stats"
	"beesim/internal/units"
)

// The timeline is the discrete-event view of the analytic model: the
// paper's server serves its time slots back to back within each wake-up
// cycle, and materializing that schedule as explicit spans lets the
// tests below cross-validate the closed-form energy arithmetic against
// an integration over the actual power profile.

// Phase labels one span of a server's cycle.
type Phase int

// Timeline phases.
const (
	// PhaseIdle: the server draws only its baseline.
	PhaseIdle Phase = iota
	// PhaseReceive: a slot's clients are uploading simultaneously.
	PhaseReceive
	// PhaseExecute: the batched model execution for a slot.
	PhaseExecute
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseReceive:
		return "receive"
	case PhaseExecute:
		return "execute"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Span is one contiguous phase of a server's cycle.
type Span struct {
	Phase Phase
	// Slot is the slot index for receive/execute spans (-1 for idle).
	Slot int
	// Clients is the number of uploading clients (receive spans).
	Clients int
	Start   time.Duration
	End     time.Duration
	// Power is the server's draw during the span.
	Power units.Watts
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Energy returns the span's energy.
func (s Span) Energy() units.Joules { return s.Power.Energy(s.Duration()) }

// ServerTimeline materializes one allocated server's cycle as an ordered
// sequence of spans covering exactly [0, Period]. Slots are served back
// to back from the cycle start, empty slots are skipped (the server
// stays idle), and the saturation penalty (loss A) is applied to the
// busy spans' power so the integral matches the analytic slot energy.
func (a Allocation) ServerTimeline(srv Server) ([]Span, error) {
	spec, svc, l := a.Spec, a.Service, a.Losses
	var spans []Span
	cursor := time.Duration(0)
	slotCount := len(srv.Slots)
	if slotCount == 0 {
		return nil, errors.New("core: server has no slots")
	}
	idleShare := spec.IdlePower.Energy(spec.Period) / units.Joules(float64(slotCount))

	appendIdle := func(until time.Duration) {
		if until > cursor {
			spans = append(spans, Span{
				Phase: PhaseIdle, Slot: -1,
				Start: cursor, End: until,
				Power: spec.IdlePower,
			})
			cursor = until
		}
	}

	for i, n := range srv.Slots {
		if n == 0 {
			continue
		}
		penalty := 1.0
		if l.SlotSaturation {
			threshold := spec.MaxParallel - l.SaturationMargin
			if over := n - threshold; over > 0 {
				if l.SaturationLinear {
					penalty = 1 + l.SaturationFactor*float64(over)
				} else {
					p := 1.0
					for k := 0; k < over; k++ {
						p *= 1 + l.SaturationFactor
					}
					penalty = p
				}
			}
		}
		transferPenalty := time.Duration(n) * l.TransferPenalty
		if l.TransferPenaltyPerSlot {
			transferPenalty = l.TransferPenalty
		}
		recvDur := svc.ReceiveDuration + transferPenalty
		recvEnd := cursor + recvDur
		execEnd := recvEnd + svc.ExecDuration
		if execEnd > spec.Period {
			return nil, fmt.Errorf("core: slot %d ends at %v, beyond the %v period",
				i, execEnd, spec.Period)
		}
		recvPower := spec.IdlePower + units.Watts(penalty)*(svc.ReceivePower-spec.IdlePower)
		execPower := spec.IdlePower + units.Watts(penalty)*(svc.ExecPower-spec.IdlePower)
		if l.SlotSaturation && !l.SaturationExtraOnly && penalty > 1 {
			// Whole-slot penalties also inflate the slot's idle share;
			// spread that surcharge over the busy spans so the timeline
			// integral still matches the analytic slot energy.
			surcharge := units.Joules(float64(idleShare) * (penalty - 1))
			busy := recvDur + svc.ExecDuration
			extra := surcharge.Power(busy)
			recvPower += extra
			execPower += extra
		}
		spans = append(spans, Span{
			Phase: PhaseReceive, Slot: i, Clients: n,
			Start: cursor, End: recvEnd,
			Power: recvPower,
		})
		spans = append(spans, Span{
			Phase: PhaseExecute, Slot: i, Clients: n,
			Start: recvEnd, End: execEnd,
			Power: execPower,
		})
		cursor = execEnd
	}
	appendIdle(spec.Period)
	return spans, nil
}

// TimelineEnergy integrates the timeline's power profile.
func TimelineEnergy(spans []Span) units.Joules {
	var total stats.Kahan
	for _, s := range spans {
		total.Add(float64(s.Energy()))
	}
	return units.Joules(total.Sum())
}

func fullServerAlloc(t *testing.T, n int, l Losses) Allocation {
	t.Helper()
	svc := cnnService(t)
	alloc, err := Allocate(n, DefaultServer(10), svc, l, FillSequential)
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

func TestTimelineCoversCycleExactly(t *testing.T) {
	alloc := fullServerAlloc(t, 95, Losses{})
	spans, err := alloc.ServerTimeline(alloc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	if spans[0].Start != 0 {
		t.Fatalf("first span starts at %v", spans[0].Start)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("gap between spans %d and %d", i-1, i)
		}
	}
	if last := spans[len(spans)-1]; last.End != 5*time.Minute {
		t.Fatalf("timeline ends at %v, want the full period", last.End)
	}
}

func TestTimelinePhasesAlternate(t *testing.T) {
	alloc := fullServerAlloc(t, 25, Losses{})
	spans, err := alloc.ServerTimeline(alloc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	// 25 clients at cap 10: 3 busy slots => 3 receive+execute pairs, then idle.
	var phases []Phase
	for _, s := range spans {
		phases = append(phases, s.Phase)
	}
	want := []Phase{
		PhaseReceive, PhaseExecute,
		PhaseReceive, PhaseExecute,
		PhaseReceive, PhaseExecute,
		PhaseIdle,
	}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase %d = %v, want %v", i, phases[i], want[i])
		}
	}
	// Receive spans carry the client counts of the sequential fill.
	if spans[0].Clients != 10 || spans[4].Clients != 5 {
		t.Fatalf("receive clients = %d, %d", spans[0].Clients, spans[4].Clients)
	}
}

// TestTimelineCrossValidatesAnalyticEnergy is the DES cross-check: the
// integral of the materialized power profile must equal the closed-form
// ServerEnergy for every loss configuration.
func TestTimelineCrossValidatesAnalyticEnergy(t *testing.T) {
	cases := []struct {
		name string
		l    Losses
	}{
		{"no loss", Losses{}},
		{"loss A", PaperLosses(true, false, false)},
		{"loss B", PaperLosses(false, true, false)},
		{"loss A+B", PaperLosses(true, true, false)},
		{"figure 9 semantics", Figure9Losses()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{7, 25, 90, 180} {
				alloc := fullServerAlloc(t, n, tc.l)
				for si, srv := range alloc.Servers {
					spans, err := alloc.ServerTimeline(srv)
					if err != nil {
						t.Fatal(err)
					}
					want := float64(alloc.ServerEnergy(srv))
					got := float64(TimelineEnergy(spans))
					if math.Abs(got-want) > 1e-6*math.Max(1, want) {
						t.Fatalf("n=%d server %d: timeline %v J vs analytic %v J",
							n, si, got, want)
					}
				}
			}
		})
	}
}

func TestPropertyTimelineMatchesAnalytic(t *testing.T) {
	svc := cnnService(t)
	f := func(nRaw uint16, capRaw uint8, a, b bool) bool {
		n := int(nRaw)%800 + 1
		maxPar := int(capRaw)%30 + 5
		l := PaperLosses(a, b, false)
		alloc, err := Allocate(n, DefaultServer(maxPar), svc, l, FillSequential)
		if err != nil {
			// Loss B can make a slot outlast the period at high capacity;
			// that is a legitimate rejection, not a failure.
			return true
		}
		for _, srv := range alloc.Servers {
			spans, err := alloc.ServerTimeline(srv)
			if err != nil {
				return false
			}
			want := float64(alloc.ServerEnergy(srv))
			got := float64(TimelineEnergy(spans))
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineBusyFractionMatchesPaperExample(t *testing.T) {
	// The paper: "given a data transfer and a model execution's duration
	// of 1 minute, a server can allow 5 time slots" in a 5-minute cycle.
	// Our CNN service has 16 s slots -> 18 slots; a full server is busy
	// 288 of 300 s.
	alloc := fullServerAlloc(t, 180, Losses{})
	spans, err := alloc.ServerTimeline(alloc.Servers[0])
	if err != nil {
		t.Fatal(err)
	}
	var busy time.Duration
	for _, s := range spans {
		if s.Phase != PhaseIdle {
			busy += s.Duration()
		}
	}
	if busy != 288*time.Second {
		t.Fatalf("busy time = %v, want 288 s", busy)
	}
	_ = routine.CNN
}

func TestPhaseString(t *testing.T) {
	for _, p := range []Phase{PhaseIdle, PhaseReceive, PhaseExecute, Phase(9)} {
		if p.String() == "" {
			t.Fatalf("phase %d unnamed", p)
		}
	}
}
