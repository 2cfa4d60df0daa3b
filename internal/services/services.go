// Package services is the smart beehive's service catalog. The paper
// focuses its measurements on queen detection but names the wider menu a
// Raspberry Pi 3B+ can run — "pollen detection, counting bees, and swarm
// prediction, among others" — and the orchestration question applies to
// each: every service has its own input payload, edge inference cost and
// cloud execution cost, so each gets its own placement answer.
//
// Costs for the non-measured services are derived from the calibrated
// inference model (internal/power) and each service's input modality:
// image services pay per pixel, audio services per sample, exactly like
// the measured queen detector.
package services

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/core"
	"beesim/internal/netsim"
	"beesim/internal/power"
	"beesim/internal/routine"
	"beesim/internal/units"
)

// Kind identifies a catalog service.
type Kind int

// The catalog.
const (
	// QueenDetection is the paper's measured service: queen presence
	// from one 10-second audio clip.
	QueenDetection Kind = iota
	// PollenDetection classifies pollen-bearing bees in entrance images.
	PollenDetection
	// BeeCounting counts takeoffs/landings in an entrance image burst.
	BeeCounting
	// SwarmPrediction fuses audio (piping) and colony trends to predict
	// swarming days ahead.
	SwarmPrediction
)

// String names the service.
func (k Kind) String() string {
	switch k {
	case QueenDetection:
		return "queen detection"
	case PollenDetection:
		return "pollen detection"
	case BeeCounting:
		return "bee counting"
	case SwarmPrediction:
		return "swarm prediction"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the catalog in a stable order.
func AllKinds() []Kind {
	return []Kind{QueenDetection, PollenDetection, BeeCounting, SwarmPrediction}
}

// Profile is one service's resource footprint.
type Profile struct {
	Kind Kind
	// Payload is the data uploaded per cycle in the edge+cloud scenario.
	Payload netsim.Bytes
	// EdgeFLOPs is the arithmetic of one edge inference.
	EdgeFLOPs float64
	// CloudExec is the server-side execution burst.
	CloudExec power.Task
	// MinPeriod is the shortest useful wake-up period (a temperature
	// tracker needs an hour; swarm season may need five minutes).
	MinPeriod time.Duration
}

// Catalog returns the profile for a service kind.
func Catalog(k Kind) (Profile, error) {
	switch k {
	case QueenDetection:
		// The measured service: one audio clip, CNN at 100x100.
		return Profile{
			Kind:      k,
			Payload:   netsim.AudioSample10s,
			EdgeFLOPs: 60e6, // calibrated to Table I's 94.8 J
			CloudExec: power.NewTask("Queen detection model (CNN)", 108, 1.0),
			MinPeriod: 5 * time.Minute,
		}, nil
	case PollenDetection:
		// Five entrance images per cycle; a per-image detector at the
		// camera's native crop costs ~4x the queen CNN at the edge.
		return Profile{
			Kind:      k,
			Payload:   5 * netsim.Image800x600,
			EdgeFLOPs: 240e6,
			CloudExec: power.NewTask("Pollen detection model", 260, 2.4),
			MinPeriod: 10 * time.Minute,
		}, nil
	case BeeCounting:
		// Counting is detection plus tracking over the burst: heavier
		// still, and the most attractive to offload.
		return Profile{
			Kind:      k,
			Payload:   5 * netsim.Image800x600,
			EdgeFLOPs: 400e6,
			CloudExec: power.NewTask("Bee counting model", 410, 3.8),
			MinPeriod: 10 * time.Minute,
		}, nil
	case SwarmPrediction:
		// Audio features plus a light temporal model over cached trends;
		// cheap at the edge, tiny in the cloud.
		return Profile{
			Kind:      k,
			Payload:   netsim.AudioSample10s + netsim.ScalarBatch,
			EdgeFLOPs: 20e6,
			CloudExec: power.NewTask("Swarm prediction model", 35, 0.4),
			MinPeriod: 30 * time.Minute,
		}, nil
	default:
		return Profile{}, fmt.Errorf("services: unknown kind %d", k)
	}
}

// EdgeCost returns the edge inference energy and duration of one run.
func (p Profile) EdgeCost() (units.Joules, time.Duration) {
	return power.DefaultEdgeInference().Cost(p.EdgeFLOPs)
}

// TransferCost returns the nominal upload duration and radio energy for
// the service's payload on the default link.
func (p Profile) TransferCost() (time.Duration, units.Joules, error) {
	cfg := netsim.DefaultConfig()
	cfg.Sigma = 0
	link, err := netsim.NewLink(cfg)
	if err != nil {
		return 0, 0, err
	}
	tr := link.Send(p.Payload)
	return tr.Duration, tr.ExtraEnergy, nil
}

// OrchestrationService converts the profile into a core.Service so the
// paper's scale model answers the placement question for it. period must
// be at least the profile's MinPeriod.
func (p Profile) OrchestrationService(period time.Duration) (core.Service, error) {
	if period < p.MinPeriod {
		return core.Service{}, fmt.Errorf(
			"services: %v needs a period of at least %v, got %v", p.Kind, p.MinPeriod, period)
	}
	pi := power.DefaultPi3B()
	cloud := power.DefaultCloud()

	edgeEnergy, edgeDur := p.EdgeCost()
	collect := pi.WakeAndCollect()
	sendResults := pi.SendResults()
	shutdown := pi.Shutdown()

	transferDur, _, err := p.TransferCost()
	if err != nil {
		return core.Service{}, err
	}
	// Upload energy at the edge: the device runs at the measured
	// send-audio power (which already includes the radio draw) for the
	// transfer duration.
	sendPower := pi.SendAudio().Power()
	uploadEnergy := sendPower.Energy(transferDur)

	activeEdgeOnly := collect.Duration + edgeDur + sendResults.Duration + shutdown.Duration
	activeEdgeCloud := collect.Duration + transferDur + shutdown.Duration
	if activeEdgeOnly >= period || activeEdgeCloud >= period {
		return core.Service{}, fmt.Errorf(
			"services: %v active time exceeds the %v period", p.Kind, period)
	}

	edgeOnly := collect.Energy + edgeEnergy + sendResults.Energy + shutdown.Energy +
		pi.Sleep(period-activeEdgeOnly).Energy
	edgeCloud := collect.Energy + uploadEnergy + shutdown.Energy +
		pi.Sleep(period-activeEdgeCloud).Energy

	recv := cloud.Receive()
	// Receive duration scales with the payload relative to the measured
	// audio upload.
	recvDur := time.Duration(float64(recv.Duration) *
		float64(p.Payload) / float64(netsim.AudioSample10s))

	return core.Service{
		Name:            p.Kind.String(),
		EdgeOnlyCycle:   edgeOnly,
		EdgeCloudCycle:  edgeCloud,
		ReceiveDuration: recvDur,
		ReceivePower:    recv.Power(),
		ExecDuration:    p.CloudExec.Duration,
		ExecPower:       p.CloudExec.Power(),
	}, nil
}

// Bundle is a set of services one smart beehive runs each cycle.
type Bundle struct {
	Kinds  []Kind
	Period time.Duration
}

// Validate checks the bundle is non-empty, deduplicated and period-feasible.
func (b Bundle) Validate() error {
	if len(b.Kinds) == 0 {
		return errors.New("services: empty bundle")
	}
	if b.Period <= 0 {
		return errors.New("services: non-positive period")
	}
	seen := map[Kind]bool{}
	for _, k := range b.Kinds {
		if seen[k] {
			return fmt.Errorf("services: duplicate %v in bundle", k)
		}
		seen[k] = true
		p, err := Catalog(k)
		if err != nil {
			return err
		}
		if b.Period < p.MinPeriod {
			return fmt.Errorf("services: %v needs >= %v, bundle period is %v",
				k, p.MinPeriod, b.Period)
		}
	}
	return nil
}

// PlacementPlan assigns each service of a bundle to a placement.
type PlacementPlan struct {
	Period    time.Duration
	Decisions map[Kind]routine.Placement
	// EdgeEnergy is the edge device's per-cycle total under the plan.
	EdgeEnergy units.Joules
	// CloudShare is the per-client server energy under the plan, for the
	// given fleet size.
	CloudShare units.Joules
}

// PlanBundle decides, service by service, where a bundle should run for
// a fleet of n hives behind servers of the given spec, then assembles
// the combined cycle: data is collected once, each edge-placed service
// adds its inference, each cloud-placed one its upload, results are sent
// once, and a single sleep fills the remainder — the multi-service
// generalization of the paper's single-service comparison.
func PlanBundle(b Bundle, n int, spec core.ServerSpec, l core.Losses) (PlacementPlan, error) {
	if err := b.Validate(); err != nil {
		return PlacementPlan{}, err
	}
	if n <= 0 {
		return PlacementPlan{}, errors.New("services: need at least one hive")
	}
	pi := power.DefaultPi3B()
	plan := PlacementPlan{
		Period:    b.Period,
		Decisions: map[Kind]routine.Placement{},
	}

	collect := pi.WakeAndCollect()
	shutdown := pi.Shutdown()
	sendResults := pi.SendResults()
	sendPower := pi.SendAudio().Power()

	activeEnergy := collect.Energy + shutdown.Energy
	activeDur := collect.Duration + shutdown.Duration
	anyEdge := false

	for _, k := range b.Kinds {
		p, err := Catalog(k)
		if err != nil {
			return PlacementPlan{}, err
		}
		svc, err := p.OrchestrationService(b.Period)
		if err != nil {
			return PlacementPlan{}, err
		}
		rec, err := core.Recommend(n, spec, svc, l)
		if err != nil {
			return PlacementPlan{}, err
		}
		plan.Decisions[k] = rec.Placement
		if rec.Placement == routine.EdgeCloud {
			dur, _, err := p.TransferCost()
			if err != nil {
				return PlacementPlan{}, err
			}
			activeEnergy += sendPower.Energy(dur) //beelint:allow accumfloat loop bounded by the service catalog (4 kinds); error far below audit tolerance
			activeDur += dur
			plan.CloudShare += rec.EdgeCloudPerClient - svc.EdgeCloudCycle //beelint:allow accumfloat loop bounded by the service catalog (4 kinds)
		} else {
			e, dur := p.EdgeCost()
			activeEnergy += e //beelint:allow accumfloat loop bounded by the service catalog (4 kinds); error far below audit tolerance
			activeDur += dur
			anyEdge = true
		}
	}
	if anyEdge {
		activeEnergy += sendResults.Energy
		activeDur += sendResults.Duration
	}
	if activeDur >= b.Period {
		return PlacementPlan{}, fmt.Errorf(
			"services: bundle active time %v exceeds the %v period", activeDur, b.Period)
	}
	plan.EdgeEnergy = activeEnergy + pi.Sleep(b.Period-activeDur).Energy
	return plan, nil
}

// TotalPerClient returns the plan's combined per-client energy.
func (p PlacementPlan) TotalPerClient() units.Joules {
	return p.EdgeEnergy + p.CloudShare
}
