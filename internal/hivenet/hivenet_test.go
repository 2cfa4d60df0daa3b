package hivenet

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"beesim/internal/audio"
	"beesim/internal/core"
	"beesim/internal/hive"
	"beesim/internal/proto"
	"beesim/internal/queendetect"
	"beesim/internal/routine"
	"beesim/internal/store"
)

// detectorKey is the training shape a ServerConfig gives its detector.
type detectorKey struct {
	corpus int
	clip   float64
	seed   uint64
}

// detectors holds one trained detector per training shape, so this
// package's tests train each model once instead of once per server.
// Inference never mutates a detector, so servers share them.
var detectors = struct {
	sync.Mutex
	m map[detectorKey]*queendetect.SVMResult
}{m: map[detectorKey]*queendetect.SVMResult{}}

// cachedDetector returns the trained detector for cfg's training shape.
func cachedDetector(cfg ServerConfig) (*queendetect.SVMResult, error) {
	detectors.Lock()
	defer detectors.Unlock()
	key := detectorKey{cfg.TrainCorpus, cfg.ClipSeconds, cfg.Seed}
	if d, ok := detectors.m[key]; ok {
		return d, nil
	}
	d, err := trainDetector(cfg)
	if err != nil {
		return nil, err
	}
	detectors.m[key] = d
	return d, nil
}

// newTestServer binds a server on addr around the cached detector for
// cfg. Tests of NewServer's validation and training call NewServer.
func newTestServer(t testing.TB, addr string, cfg ServerConfig) (*Server, error) {
	t.Helper()
	d, err := cachedDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(addr, cfg, d)
}

// startServer boots a server on a loopback port and returns it with a
// cleanup hook.
func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := newTestServer(t, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, s)
}

// serve runs s until the test ends.
func serve(t *testing.T, s *Server) *Server {
	t.Helper()
	go func() {
		if err := s.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", ServerConfig{MaxParallel: 0, Slots: 5, TrainCorpus: 20, ClipSeconds: 1}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{MaxParallel: 5, Slots: 5, TrainCorpus: 2, ClipSeconds: 1}); err == nil {
		t.Error("tiny corpus accepted")
	}
}

// TestEndToEndEdgeCloudCycle goes through NewServer, so the server
// serves a detector it trained itself.
func TestEndToEndEdgeCloudCycle(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	serve(t, s)
	if s.DetectorAccuracy() < 0.8 {
		t.Fatalf("server detector accuracy = %v", s.DetectorAccuracy())
	}

	cfg := DefaultAgentConfig("cachan-1")
	cfg.Seed = 77
	agent, err := Dial(s.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	now := time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)
	res, err := agent.RunCycle(hive.QueenPresent, 0.7, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputedAt != "cloud" {
		t.Fatalf("computed at %q, want cloud", res.ComputedAt)
	}
	if !res.QueenPresent {
		t.Error("queen-present clip classified queenless")
	}
	if res.Confidence < 0 || res.Confidence > 1 {
		t.Fatalf("confidence = %v", res.Confidence)
	}
	if res.HiveID != "cachan-1" || !res.Time.Equal(now) {
		t.Fatalf("result identity lost: %+v", res)
	}

	res, err = agent.RunCycle(hive.QueenLost, 0.7, now.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.QueenPresent {
		t.Error("queenless clip classified queen-present")
	}

	st := s.Stats()
	if st.Uploads != 2 || st.Reports != 2 || st.Sessions != 1 {
		t.Fatalf("server stats = %+v", st)
	}
	// Each upload is one receive+execute burst: (68.8-44.6)*15 + (63-44.6)*0.1 ≈ 364.8 J.
	wantBurst := 2 * 364.84
	if math.Abs(float64(st.BurstEnergy)-wantBurst) > 2 {
		t.Fatalf("burst energy = %v, want ~%v J", st.BurstEnergy, wantBurst)
	}
}

// TestInferOnePass pins the server's one-pass inference to the
// two-pass computation it replaced: on queen-present and queenless
// clips, the verdict equals detector.Predict and the confidence equals,
// bit for bit, the squashed margin of a second feature pass.
func TestInferOnePass(t *testing.T) {
	cfg := DefaultServerConfig()
	s, err := newTestServer(t, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	synth, err := audio.NewSynth(audio.Config{SampleRate: audio.SampleRate, Seconds: cfg.ClipSeconds, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[bool]bool{}
	for i := 0; i < 8; i++ {
		state := hive.QueenPresent
		if i%2 == 1 {
			state = hive.QueenLost
		}
		// Round-trip through 16-bit PCM, as an upload does.
		clip, err := proto.PCMDecode(proto.PCMEncode(synth.Clip(state, 0.3+0.1*float64(i))))
		if err != nil {
			t.Fatal(err)
		}
		queen, confidence, err := s.infer(clip)
		if err != nil {
			t.Fatal(err)
		}
		wantQueen, err := s.detector.Predict(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		v, err := queendetect.VectorFeatures(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		margin := s.detector.Model.Decision(s.detector.Scaler.Transform(v))
		if margin < 0 {
			margin = -margin
		}
		wantConf := margin / (1 + margin)
		if queen != wantQueen || math.Float64bits(confidence) != math.Float64bits(wantConf) {
			t.Fatalf("clip %d (%v): infer (%v, %v), two-pass (%v, %v)",
				i, state, queen, confidence, wantQueen, wantConf)
		}
		seen[queen] = true
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("clips exercised only one verdict: %v", seen)
	}
}

func TestEndToEndEdgeOnlyCycle(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	cfg := DefaultAgentConfig("lyon-3")
	cfg.Placement = routine.EdgeOnly
	cfg.Seed = 5
	agent, err := Dial(s.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	res, err := agent.RunCycle(hive.QueenPresent, 0.8, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputedAt != "edge" {
		t.Fatalf("computed at %q, want edge", res.ComputedAt)
	}
	if !res.QueenPresent {
		t.Error("edge model misclassified a queen-present clip")
	}
	st := s.Stats()
	if st.Uploads != 0 {
		t.Fatalf("edge placement caused %d uploads", st.Uploads)
	}
	if st.Reports != 2 { // sensor report + archived result
		t.Fatalf("reports = %d, want 2", st.Reports)
	}
	// Edge energy ledger: collect + SVM inference + send results + shutdown.
	want := 131.8 + 98.9 + 3.0 + 21.0
	if math.Abs(float64(agent.EdgeEnergy())-want) > 0.5 {
		t.Fatalf("edge energy = %v, want ~%v J", agent.EdgeEnergy(), want)
	}
}

func TestEdgeCloudEnergyLedger(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	agent, err := Dial(s.Addr(), DefaultAgentConfig("h1"))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.RunCycle(hive.QueenPresent, 0.5, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	// Table II's active rows: collect 131.8 + send audio 37.3 + shutdown 21.0.
	want := 131.8 + 37.3 + 21.0
	if math.Abs(float64(agent.EdgeEnergy())-want) > 0.5 {
		t.Fatalf("edge energy = %v, want ~%v J", agent.EdgeEnergy(), want)
	}
	if agent.Cycles() != 1 {
		t.Fatalf("cycles = %d", agent.Cycles())
	}
}

func TestSlotAssignmentSequentialFill(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxParallel = 2
	cfg.Slots = 3
	s := startServer(t, cfg)

	var agents []*Agent
	t.Cleanup(func() {
		for _, a := range agents {
			_ = a.Close()
		}
	})
	wantSlots := []int{0, 0, 1, 1, 2, 2}
	for i, want := range wantSlots {
		a, err := Dial(s.Addr(), DefaultAgentConfig("h"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		if a.Slot() != want {
			t.Fatalf("agent %d slot = %d, want %d (sequential fill)", i, a.Slot(), want)
		}
	}
	// Capacity exhausted: the 7th hive is refused.
	if _, err := Dial(s.Addr(), DefaultAgentConfig("overflow")); err == nil {
		t.Fatal("server over capacity accepted a hive")
	} else if !strings.Contains(err.Error(), "full") {
		t.Fatalf("refusal error = %v", err)
	}

	// Freed places refill lowest-first: after the hives in slots 0 and 2
	// leave, the next two joins land in 0 and then 2.
	for _, i := range []int{0, 4} {
		if err := agents[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []int{0, 2} {
		a, err := Dial(s.Addr(), DefaultAgentConfig("rejoin"))
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		if a.Slot() != want {
			t.Fatalf("rejoining hive slot = %d, want %d (lowest slot with room)", a.Slot(), want)
		}
	}

	// At the default 10 x 18 shape, live slot occupancy is the paper's
	// allocator's. Core fits 18 full CNN slots in a 5-minute cycle (19
	// for the shorter SVM execution), so the default is Figure 6's CNN
	// shape.
	def := DefaultServerConfig()
	svc, err := core.NewService(routine.CNN, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.DefaultServer(def.MaxParallel)
	if slots, err := spec.SlotsPerCycle(svc, core.Losses{}); err != nil || slots != def.Slots {
		t.Fatalf("core fits %d CNN slots (%v), server has %d", slots, err, def.Slots)
	}
	for _, n := range []int{25, 180} {
		want, err := core.Allocate(n, spec, svc, core.Losses{}, core.FillSequential)
		if err != nil {
			t.Fatal(err)
		}
		srv := startServer(t, def)
		got := make([]int, def.Slots)
		for i := 0; i < n; i++ {
			acfg := DefaultAgentConfig(fmt.Sprintf("fill-%d", i))
			acfg.ClipSeconds = 0.25
			a, err := Dial(srv.Addr(), acfg)
			if err != nil {
				t.Fatalf("n=%d: hive %d: %v", n, i, err)
			}
			t.Cleanup(func() { _ = a.Close() }) // before srv's Close waits on it
			got[a.Slot()]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want.Servers[0].Slots) {
			t.Fatalf("n=%d: slot occupancy %v, core.Allocate %v", n, got, want.Servers[0].Slots)
		}
	}
}

// TestSlotReleasedWhenSessionEnds: a hive that says Bye gives its slot
// back, so a server keeps welcoming hives that come and go long after
// Slots x MaxParallel sessions have been served.
func TestSlotReleasedWhenSessionEnds(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxParallel = 2
	cfg.Slots = 3
	s := startServer(t, cfg)

	var slots []int
	for i := 0; i < 7; i++ {
		acfg := DefaultAgentConfig(fmt.Sprintf("churn-%d", i))
		acfg.ClipSeconds = 0.25
		a, err := Dial(s.Addr(), acfg)
		if err != nil {
			t.Fatalf("hive %d refused after %d sessions ended: %v", i, i, err)
		}
		_, cycleErr := a.RunCycle(hive.QueenPresent, 0.6, time.Now().UTC())
		slots = append(slots, a.Slot())
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if cycleErr != nil {
			t.Fatal(cycleErr)
		}
	}
	// Each hive found the slot its predecessor freed.
	for i, slot := range slots {
		if slot != 0 {
			t.Fatalf("hive %d got slot %d, want the freed slot 0 (slots %v)", i, slot, slots)
		}
	}
}

func TestConcurrentAgents(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxParallel = 10
	cfg.Slots = 4
	s := startServer(t, cfg)

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acfg := DefaultAgentConfig("concurrent")
			acfg.Seed = uint64(100 + i)
			a, err := Dial(s.Addr(), acfg)
			if err != nil {
				errs <- err
				return
			}
			defer a.Close()
			for c := 0; c < 3; c++ {
				if _, err := a.RunCycle(hive.QueenPresent, 0.6, time.Now().UTC()); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Sessions != n {
		t.Fatalf("sessions = %d, want %d", st.Sessions, n)
	}
	if st.Uploads != 3*n {
		t.Fatalf("uploads = %d, want %d", st.Uploads, 3*n)
	}
}

func TestAgentValidation(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	bad := DefaultAgentConfig("")
	if _, err := Dial(s.Addr(), bad); err == nil {
		t.Error("empty hive id accepted")
	}
	bad = DefaultAgentConfig("x")
	bad.ClipSeconds = 0
	if _, err := Dial(s.Addr(), bad); err == nil {
		t.Error("zero clip length accepted")
	}
}

func TestAgentCloseIsIdempotent(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	a, err := Dial(s.Addr(), DefaultAgentConfig("h"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if _, err := a.RunCycle(hive.QueenPresent, 0.5, time.Now()); err == nil {
		t.Fatal("cycle on closed agent accepted")
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	s, err := newTestServer(t, "127.0.0.1:0", DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return after close")
	}
}

func TestArchiveRecordsSessions(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	agent, err := Dial(s.Addr(), DefaultAgentConfig("arch-1"))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	now := time.Date(2023, 4, 20, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if _, err := agent.RunCycle(hive.QueenPresent, 0.6, now.Add(time.Duration(i)*5*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	arch := s.Archive()
	sensors, err := arch.Query("arch-1", now, now.Add(time.Hour), store.KindSensor)
	if err != nil {
		t.Fatal(err)
	}
	if len(sensors) != 3 {
		t.Fatalf("archived sensor reports = %d, want 3", len(sensors))
	}
	results, err := arch.Query("arch-1", now, now.Add(time.Hour), store.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("archived results = %d, want 3", len(results))
	}
	if results[0].Text["computed_at"] != "cloud" {
		t.Fatalf("result provenance = %q", results[0].Text["computed_at"])
	}
	if results[0].Fields["queen_present"] != 1 {
		t.Fatalf("verdict fields = %v", results[0].Fields)
	}
}

func TestArchivePersistsToDisk(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ArchivePath = filepath.Join(t.TempDir(), "apiary.log")
	s := startServer(t, cfg)
	agent, err := Dial(s.Addr(), DefaultAgentConfig("disk-1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.RunCycle(hive.QueenLost, 0.6, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	agent.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(cfg.ArchivePath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() < 2 { // sensor report + verdict
		t.Fatalf("persisted records = %d, want >= 2", re.Len())
	}
	rec, ok := re.Latest("disk-1", store.KindResult)
	if !ok || rec.Fields["queen_present"] != 0 {
		t.Fatalf("persisted verdict = %+v, %v", rec, ok)
	}
}

// TestListenFailureClosesArchive hands the server an unlistenable
// address: the freshly opened archive must be closed (and its file left
// reusable) rather than leaked with the error.
func TestListenFailureClosesArchive(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ArchivePath = filepath.Join(t.TempDir(), "apiary.log")
	if _, err := newTestServer(t, "127.0.0.1", cfg); err == nil { // no port: Listen must fail
		t.Fatal("server on a portless address started")
	}
	re, err := store.Open(cfg.ArchivePath)
	if err != nil {
		t.Fatalf("archive unusable after failed start: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}
