// Socket stress tests against live hivenet servers. Wall-clock use
// (leak-drain polling, timeouts) never feeds a byte-compared artifact.
//
//beelint:allow walltime live-server stress tests poll real goroutine and fd counts
package loadgen

import (
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"beesim/internal/hivenet"
	"beesim/internal/obs"
)

// stressSpec is the short-mode fleet: 200 hives x 2 wake-ups across 2
// shards, mild link faults, tight admission and archive caps — big
// enough to exercise retry storms and shedding, small enough for -race
// in the tier-1 gate.
func stressSpec(t *testing.T) LoadSpec {
	t.Helper()
	s, err := ParseSpec([]byte(`{
	  "name": "stress", "seed": 11, "hives": 200, "wake_period_s": 300,
	  "horizon_s": 600, "clip_s": 0.2, "phase_spread": 1,
	  "api_reads_per_wake": 0.1, "shards": 2,
	  "server": {"max_inflight": 8, "max_archive_records": 300, "stall_ms": 1},
	  "faults": {"link": {"drop_prob": 0.05}},
	  "retry": {"max_attempts": 4, "base_s": 0.05, "max_s": 0.2,
	            "multiplier": 2, "jitter_frac": 0.2, "attempt_timeout_s": 0.05}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bootShards starts n live server shards (plus dashboards) sized for
// the spec and returns their addresses.
func bootShards(t *testing.T, spec LoadSpec, n int) (servers []*hivenet.Server, addrs, dashes []string) {
	t.Helper()
	cfg := hivenet.DefaultServerConfig()
	cfg.TrainCorpus = 12
	cfg.ClipSeconds = spec.ClipS
	cfg.Seed = spec.Seed
	cfg.MaxParallel = spec.Hives/n + 1
	cfg.Slots = 2
	cfg.Admission = hivenet.AdmissionConfig{
		MaxSessions:        spec.Server.MaxSessions,
		MaxInflightUploads: spec.Server.MaxInflight,
		MaxArchiveRecords:  spec.Server.MaxArchiveRecords,
		UploadStall:        time.Duration(spec.Server.StallMS * float64(time.Millisecond)),
	}
	for i := 0; i < n; i++ {
		cfg.Metrics = obs.NewRegistry() // one registry per shard: Stats reads it
		s, err := hivenet.NewServer("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = s.Serve() }()
		t.Cleanup(func() { _ = s.Close() })
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		go func() { _ = http.Serve(ln, hivenet.NewDashboard(s)) }()
		dashes = append(dashes, "http://"+ln.Addr().String())
	}
	return servers, addrs, dashes
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	return len(ents)
}

// settle polls until fn holds or the deadline passes; used to let
// closed sessions and keep-alive conns drain before leak accounting.
func settle(timeout time.Duration, fn func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !fn() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
	return true
}

func TestStressReplayShortMode(t *testing.T) {
	spec := stressSpec(t)
	evs := Schedule(spec)
	servers, addrs, dashes := bootShards(t, spec, spec.Shards)

	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := openFDs(t)

	res, err := Run(spec, evs, RunOptions{
		Addrs:      addrs,
		Dashboards: dashes,
		SleepScale: 0.02,
		IOTimeout:  20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.FailedSessions != 0 {
		t.Fatalf("%d failed sessions, first: %v", res.FailedSessions, res.FirstErr)
	}
	if res.RefusedSessions != 0 {
		t.Fatalf("%d refused sessions with no session cap armed", res.RefusedSessions)
	}
	if res.Offered != spec.Hives*spec.WakesPerHive() {
		t.Fatalf("offered %d, want %d", res.Offered, spec.Hives*spec.WakesPerHive())
	}
	if res.Delivered+res.Lost+res.Unattempted != res.Offered {
		t.Fatalf("accounting broke: %+v", res)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}

	// The servers' own books must agree with the client's: rejects are
	// never counted as uploads, so delivered == sum of server uploads.
	// Each shard's dashboard counter is that shard's own, not the fleet's.
	serverUploads, serverSheds := 0, 0
	for i, s := range servers {
		st := s.Stats()
		if c, _ := s.Metrics().Snapshot().FindCounter(hivenet.MetricUploads); int(c) != st.Uploads {
			t.Fatalf("shard %d: %s = %v, stats say %d", i, hivenet.MetricUploads, c, st.Uploads)
		}
		serverUploads += st.Uploads
		serverSheds += st.ArchiveShed
		if cap := spec.Server.MaxArchiveRecords; s.Archive().Len() > cap {
			t.Fatalf("archive grew to %d past cap %d", s.Archive().Len(), cap)
		}
	}
	if serverUploads != res.Delivered {
		t.Fatalf("servers counted %d uploads, clients delivered %d", serverUploads, res.Delivered)
	}
	if serverSheds == 0 {
		t.Fatal("archive cap never shed despite 2 records per delivered wake-up")
	}

	// Wall latency got measured for every delivered upload.
	if h, ok := res.Registry.Snapshot().FindHistogram(MetricUploadWallSeconds); !ok || int(h.Count) != res.Delivered {
		t.Fatalf("wall-latency histogram count != delivered")
	}

	// No goroutine or fd leaks once sessions drain (server handlers
	// exit on client close; dashboards idle).
	if !settle(10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+5
	}) {
		t.Fatalf("goroutines leaked: before %d, after %d", goroutinesBefore, runtime.NumGoroutine())
	}
	if !settle(10*time.Second, func() bool { return openFDs(t) <= fdsBefore+5 }) {
		t.Fatalf("fds leaked: before %d, after %d", fdsBefore, openFDs(t))
	}
}

func TestRunRejectedByFullSessionCap(t *testing.T) {
	spec := stressSpec(t)
	spec.Hives = 8
	spec.Server.MaxSessions = 4
	spec.Faults = nil
	evs := Schedule(spec)
	_, addrs, _ := bootShards(t, spec, 1)
	res, err := Run(spec, evs, RunOptions{Addrs: addrs, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.RefusedSessions == 0 {
		t.Skip("all 8 sessions fit the cap sequentially; nothing to assert")
	}
	if res.Delivered+res.Lost+res.Unattempted != res.Offered {
		t.Fatalf("accounting broke under session caps: %+v", res)
	}
}
