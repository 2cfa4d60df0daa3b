package loadgen

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"beesim/internal/faults"
	"beesim/internal/hivenet"
	"beesim/internal/ledger"
	"beesim/internal/netsim"
	"beesim/internal/obs"
	"beesim/internal/parallel"
	"beesim/internal/power"
	"beesim/internal/stats"
)

// SimOptions shape one virtual-time capacity probe.
type SimOptions struct {
	// Servers is the shard count the load is offered to (hive →
	// shard by hive mod Servers). Must be >= 1.
	Servers int
	// Workers bounds shard-level concurrency (0 = GOMAXPROCS). Any
	// value produces byte-identical results.
	Workers int
	// RateScale multiplies the offered arrival rate by compressing
	// the schedule (2 = twice the load). 0 means 1.
	RateScale float64
	// NeedEntries synthesizes ledger entries (edge radio attempts,
	// cloud upload bursts) so energy SLO objectives can be evaluated.
	NeedEntries bool
}

// SimResult is one probe's outcome: the fleet's delivery accounting,
// energy totals, and an obs registry carrying the same metric
// vocabulary the live stack emits (netsim_upload_seconds,
// hivenet_admission_rejects_total, ...) so internal/slo specs written
// for either work unchanged.
type SimResult struct {
	Servers   int
	RateScale float64
	// HorizonS is the compressed campaign length the probe covered.
	HorizonS float64

	// Offered counts scheduled upload episodes; every episode ends
	// delivered or lost, so Offered == Delivered + Lost always.
	Offered   int
	Delivered int
	// Rejected counts admission rejects (attempt granularity).
	Rejected int
	// DroppedLink counts attempts lost to link faults before reaching
	// a server.
	DroppedLink int
	// Lost counts episodes that exhausted their retry budget.
	Lost int
	// Reads counts dashboard/API read arrivals (not queued — the read
	// path does not hold an upload slot).
	Reads int
	// ArchiveShed counts records shed by the per-shard archive cap.
	ArchiveShed int

	// EdgeJ is radio energy spent on attempts; ServerJ is above-idle
	// cloud energy spent on delivered uploads.
	EdgeJ   float64
	ServerJ float64

	Registry *obs.Registry
	Entries  []ledger.Entry
}

// DeliveredFrac is the delivery ratio (1 when nothing was offered).
func (r SimResult) DeliveredFrac() float64 {
	if r.Offered == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Offered)
}

// serviceSeconds is the planner's per-upload service time: the spec
// override, or the calibrated cloud model (receive + SVM execute).
func serviceSeconds(spec LoadSpec) float64 {
	if spec.Server.ServiceS > 0 {
		return spec.Server.ServiceS
	}
	cloud := power.DefaultCloud()
	return cloud.Receive().Duration.Seconds() + cloud.ExecSVM().Duration.Seconds()
}

// attemptItem is one pending upload attempt in a shard's event queue.
type attemptItem struct {
	at      time.Duration // attempt arrival (virtual)
	wakeAt  time.Duration // episode's scheduled wake-up (latency anchor)
	hive    int
	wake    int
	attempt int // 1-based
}

// attemptQueue is a min-heap ordered by (at, hive, wake, attempt) — a
// total order, so simultaneous retries pop identically everywhere.
type attemptQueue []attemptItem

func (q attemptQueue) Len() int { return len(q) }
func (q attemptQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.hive != b.hive {
		return a.hive < b.hive
	}
	if a.wake != b.wake {
		return a.wake < b.wake
	}
	return a.attempt < b.attempt
}
func (q attemptQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *attemptQueue) Push(x any) { *q = append(*q, x.(attemptItem)) }
func (q *attemptQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// busyHeap tracks inflight completion instants per shard.
type busyHeap []time.Duration

func (h busyHeap) Len() int           { return len(h) }
func (h busyHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h busyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *busyHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *busyHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// shardResult is one shard's tallies, merged serially in shard order.
type shardResult struct {
	delivered, rejected, droppedLink, lost, offered int
	edgeJ, serverJ                                  float64
	reg                                             *obs.Registry
	entries                                         []ledger.Entry
}

// simShard replays one shard's upload episodes through an M/G/c-style
// admission model in virtual time: c = MaxInflight concurrent
// handlers, no queue — an arrival finding every handler busy is
// rejected and retried by the client policy, exactly the live
// server's admission semantics.
func simShard(spec LoadSpec, evs []Event, scale float64, inj *faults.Injector,
	policy faults.RetryPolicy, needEntries bool) shardResult {
	res := shardResult{reg: obs.NewRegistry()}
	serviceS := serviceSeconds(spec)
	service := seconds(serviceS)
	// The above-idle cloud energy one delivered upload costs: the same
	// receive and SVM-execute bursts the live server books.
	cloud := power.DefaultCloud()
	burstJ := float64(cloud.AboveIdle(cloud.Receive()) + cloud.AboveIdle(cloud.ExecSVM()))
	send := power.DefaultPi3B().SendAudio()
	budget := spec.Server.MaxInflight

	hLatency := res.reg.Histogram(netsim.MetricUploadSeconds)
	hE2E := res.reg.Histogram(hivenet.MetricUploadE2ESeconds)
	hDepth := res.reg.Histogram(hivenet.MetricQueueDepth)
	hAttempts := res.reg.Histogram(netsim.MetricAttemptsPerUpload)
	cEpisodes := res.reg.Counter(netsim.MetricUploadEpisodes)
	cDrops := res.reg.Counter(netsim.MetricSendDrops)
	cAttempts := res.reg.Counter(netsim.MetricSendAttempts)
	cRejects := res.reg.Counter(hivenet.MetricAdmissionRejects)
	cUploads := res.reg.Counter(hivenet.MetricUploads)

	var edge, server stats.Kahan

	q := make(attemptQueue, 0, len(evs))
	for _, ev := range evs {
		at := time.Duration(float64(ev.At) / scale)
		q = append(q, attemptItem{at: at, wakeAt: at, hive: ev.Hive, wake: ev.Wake, attempt: 1})
	}
	heap.Init(&q)
	res.offered = len(evs)
	cEpisodes.Add(float64(len(evs)))

	var busy busyHeap
	// episode bookkeeping for the attempts-per-upload histogram: the
	// attempt count is carried in each item, so the final attempt's
	// value is the episode's total.
	finish := func(it attemptItem, deliveredAt time.Duration, ok bool) {
		hAttempts.Observe(float64(it.attempt))
		edge.Add(float64(it.attempt) * float64(send.Energy))
		end := deliveredAt
		if ok {
			res.delivered++
			cUploads.Inc()
			lat := (deliveredAt - it.wakeAt).Seconds()
			hLatency.Observe(lat)
			hE2E.Observe(lat)
			server.Add(burstJ)
		} else {
			res.lost++
			cDrops.Inc()
		}
		if needEntries {
			t := CampaignStart.Add(end)
			res.entries = append(res.entries, ledger.Entry{
				T: t, Hive: HiveID(it.hive), Device: "edge", Component: "radio",
				Task: send.Name, Dir: ledger.Consume,
				Joules:  float64(it.attempt) * float64(send.Energy),
				Seconds: float64(it.attempt) * send.Duration.Seconds(),
			})
			if ok {
				res.entries = append(res.entries, ledger.Entry{
					T: t, Hive: HiveID(it.hive), Device: "cloud", Component: "server",
					Task: "upload burst", Dir: ledger.Consume,
					Joules: burstJ, Seconds: serviceS,
				})
			}
		}
	}

	retry := func(it attemptItem, now time.Duration, extra time.Duration) bool {
		if it.attempt >= policy.MaxAttempts {
			return false
		}
		u := 0.5
		if inj != nil {
			u = inj.JitterU(CampaignStart.Add(now), it.attempt)
		}
		next := it
		next.attempt++
		next.at = now + extra + policy.Backoff(it.attempt, u)
		heap.Push(&q, next)
		return true
	}

	for q.Len() > 0 {
		it := heap.Pop(&q).(attemptItem)
		now := it.at
		for len(busy) > 0 && busy[0] <= now {
			heap.Pop(&busy)
		}
		cAttempts.Inc()
		// Link faults eat the attempt before the server ever sees it.
		if inj != nil && inj.DropUpload(CampaignStart.Add(now), it.attempt) {
			res.droppedLink++
			if !retry(it, now, policy.AttemptTimeout) {
				finish(it, now+policy.AttemptTimeout, false)
			}
			continue
		}
		hDepth.Observe(float64(len(busy)))
		if budget > 0 && len(busy) >= budget {
			res.rejected++
			cRejects.Inc()
			if !retry(it, now, 0) {
				finish(it, now, false)
			}
			continue
		}
		done := now + service
		heap.Push(&busy, done)
		finish(it, done, true)
	}

	res.edgeJ = edge.Sum()
	res.serverJ = server.Sum()
	if cap := spec.Server.MaxArchiveRecords; cap > 0 {
		// The live server archives two records per delivered wake-up
		// (sensor report + verdict); the cap sheds the overflow.
		if records := 2 * res.delivered; records > cap {
			res.reg.Counter(hivenet.MetricArchiveShed).Add(float64(records - cap))
		}
	}
	return res
}

// Simulate replays the spec's schedule against opt.Servers virtual
// hivenet shards. Per-shard simulation is pure; shard results merge
// serially in shard order, so the result is byte-identical at any
// opt.Workers.
func Simulate(spec LoadSpec, evs []Event, opt SimOptions) (SimResult, error) {
	if opt.Servers < 1 {
		return SimResult{}, fmt.Errorf("loadgen: simulate needs servers >= 1, got %d", opt.Servers)
	}
	scale := opt.RateScale
	if scale <= 0 {
		scale = 1
	}
	inj, err := spec.Injector(CampaignStart)
	if err != nil {
		return SimResult{}, err
	}
	policy := spec.RetryPolicy()

	shardEvs := make([][]Event, opt.Servers)
	reads := 0
	for _, ev := range evs {
		switch ev.Kind {
		case EventUpload:
			s := ev.Hive % opt.Servers
			shardEvs[s] = append(shardEvs[s], ev)
		case EventRead:
			reads++
		}
	}

	shards, err := parallel.Map(opt.Workers, opt.Servers, func(s int) (shardResult, error) {
		return simShard(spec, shardEvs[s], scale, inj, policy, opt.NeedEntries), nil
	})
	if err != nil {
		return SimResult{}, err
	}

	out := SimResult{
		Servers:   opt.Servers,
		RateScale: scale,
		HorizonS:  spec.HorizonS / scale,
		Reads:     reads,
		Registry:  obs.NewRegistry(),
	}
	var edge, server stats.Kahan
	for _, sh := range shards {
		out.Offered += sh.offered
		out.Delivered += sh.delivered
		out.Rejected += sh.rejected
		out.DroppedLink += sh.droppedLink
		out.Lost += sh.lost
		edge.Add(sh.edgeJ)
		server.Add(sh.serverJ)
		out.Registry.Merge(sh.reg)
		out.Entries = append(out.Entries, sh.entries...)
	}
	out.EdgeJ = edge.Sum()
	out.ServerJ = server.Sum()
	if shed, ok := out.Registry.Snapshot().FindCounter(hivenet.MetricArchiveShed); ok {
		out.ArchiveShed = int(shed)
	}
	out.Registry.Counter("loadgen_api_reads_total").Add(float64(reads))
	// Cross-shard entry order must not depend on shard sizes: impose
	// the total order (T, Hive, Task).
	sort.Slice(out.Entries, func(i, j int) bool {
		a, b := out.Entries[i], out.Entries[j]
		if !a.T.Equal(b.T) {
			return a.T.Before(b.T)
		}
		if a.Hive != b.Hive {
			return a.Hive < b.Hive
		}
		return a.Task < b.Task
	})
	return out, nil
}
