//beelint:allow walltime the live server under test keeps real uptime and dashboard windows; the harness measures real time

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"beesim/internal/audio"
	"beesim/internal/hivenet"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/proto"
	"beesim/internal/queendetect"
	"beesim/internal/rng"
	"beesim/internal/store"
)

// Fleet constants: a fleet of distinct hives waking every five minutes
// (as examples/fleet_small.json does), each wake one sensor report and
// one 0.25 s upload, with dashboard reads at fixed shares of wakes.
// The records share is fleet_small.json's api_reads_per_wake; the
// scrape share is one /metrics scrape per scrapeInterval of the fleet's
// virtual time, which passes fleetPeriod per fleetHives wakes.
const (
	fleetHives    = 2000
	fleetClips    = 8
	fleetClipSecs = 0.25
	fleetPeriod   = 300 * time.Second
	fleetArchive  = 2000 // MaxArchiveRecords: the index sheds beyond it
	fleetLowRate  = 400.0
	fleetHighRate = 1000.0
	recordsEvery  = 4 // GET /api/records on one wake in four
	// scrapeInterval is the scrape interval of Prometheus's
	// getting-started configuration (its built-in default is 1 min).
	scrapeInterval = 15 * time.Second
	scrapeEvery    = int64(scrapeInterval * fleetHives / fleetPeriod) // 100 wakes
	recordsHoursQ  = "1000000"
	uploadDelay    = time.Second // a wake's upload follows its report
)

var fleetLadder = []float64{400, 800, 1200, 1600, 2000, 2400}

// fleetBench is the fleet_mix workload.
type fleetBench struct {
	serverRig
	cfg     hivenet.ServerConfig
	dash    *hivenet.Dashboard
	ref     *queendetect.SVMResult
	pcm     [][]byte
	hiveOf  []int // seeded permutation of hive indices
	nextOp  atomic.Int64
	reports atomic.Int64
	results atomic.Int64
	badHTTP atomic.Int64
	// reads holds each session's /api/records responses; check
	// verifies them after the run, off the timed path.
	reads [][]recordsRead
}

// recordsRead is one /api/records response: g is the wake that read
// it, issued how many wakes had started when it did.
type recordsRead struct {
	g, issued int64
	body      []byte
}

func (b *fleetBench) setup(rc *runConfig) ([]time.Duration, error) {
	b.reads = make([][]recordsRead, rc.Workers)
	cfgFor := func(i int) hivenet.ServerConfig {
		cfg := hivenet.DefaultServerConfig()
		cfg.Seed = rc.Seed
		cfg.Metrics = obs.NewRegistry()
		cfg.Ledger = ledger.New()
		cfg.Tracer = obs.NewTracer(baseTime)
		cfg.ArchivePath = filepath.Join(rc.TmpDir, fmt.Sprintf("archive-%d.log", i))
		cfg.Admission.MaxArchiveRecords = fleetArchive
		b.cfg = cfg // the last one built is the server under test
		return cfg
	}
	setups, err := b.startServers(rc, cfgFor)
	if err != nil {
		return nil, err
	}
	b.dash = hivenet.NewDashboard(b.srv)
	if b.ref, err = trainReference(b.cfg); err != nil {
		return nil, err
	}
	clips, err := synthClips(rc.Seed, fleetClips, fleetClipSecs)
	if err != nil {
		return nil, err
	}
	for _, c := range clips {
		b.pcm = append(b.pcm, proto.PCMEncode(c))
	}
	b.hiveOf = rng.Stream(rc.Seed, 5).Perm(fleetHives)
	return setups, nil
}

// wakeAt returns the hive and virtual time of global operation g: hives
// wake in a seeded order, each every fleetPeriod, phase-shifted by index.
func (b *fleetBench) wakeAt(g int64) (string, int, time.Time) {
	h := b.hiveOf[g%fleetHives]
	wake := int(g / fleetHives)
	t := baseTime.Add(time.Duration(wake)*fleetPeriod + time.Duration(h)*fleetPeriod/fleetHives)
	return fmt.Sprintf("hive-%06d", h), wake, t
}

func recordKey(hive string, t time.Time) string { return fmt.Sprintf("%s|%d", hive, t.UnixNano()) }

// wake runs wake-up g on session w: a sensor report, a short upload
// and, on fixed shares of wakes, dashboard reads.
func (b *fleetBench) wake(w int, sp *spans, g int64) outcome {
	s := b.sessions[w]
	hive, wake, t := b.wakeAt(g)
	upAt := t.Add(uploadDelay)
	x := float64(g%97) / 97
	f, err := s.roundTrip(proto.TypeSensorReport, proto.SensorReport{
		HiveID: hive, Time: t, InsideTempC: 30 + 5*x, InsideRH: 50 + 20*x,
		OutsideTempC: 10 + 10*x, BatterySoC: 0.5 + 0.4*x,
	}, nil)
	if err == nil {
		err = expect(f, proto.TypeAck, nil)
	}
	if err != nil {
		return outcomeOf(err)
	}
	b.reports.Add(1)
	pcm := b.pcm[g%fleetClips]
	f, err = s.roundTrip(proto.TypeAudioUpload, proto.AudioUpload{
		HiveID: hive, Time: upAt, SampleRate: audio.SampleRate, Samples: len(pcm) / 2,
		Traceparent: obs.NewRootSpan(b.rc.Seed, hive, uint64(wake)).Child("upload", 0).Traceparent(),
	}, pcm)
	if err == nil {
		err = expect(f, proto.TypeResult, &proto.Result{})
	}
	if err != nil {
		return outcomeOf(err)
	}
	b.results.Add(1)
	if g%recordsEvery == 0 {
		rec := b.get("/api/records?hive=" + hive + "&hours=" + recordsHoursQ)
		if rec.Code != http.StatusOK {
			b.badHTTP.Add(1)
		}
		b.reads[w] = append(b.reads[w], recordsRead{g, b.nextOp.Load(), rec.Body.Bytes()})
	}
	if g%scrapeEvery == 0 {
		i := sp.begin("obs.scrape", -1)
		if rec := b.get("/metrics"); rec.Code != http.StatusOK {
			b.badHTTP.Add(1)
		}
		sp.end(i)
	}
	return opOK
}

func (b *fleetBench) get(target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	b.dash.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// checkReads checks the dashboard's /api/records responses. foreign
// counts records the client never wrote: every record must carry the
// hive it was asked for and the timestamp of a report or upload the
// client sent for that hive (an unparsable body counts once). missing
// counts reads that lack their own wake's report or upload record.
// Those are the newest arrivals when the read runs, and the archive
// sheds oldest-arrival-first, so they are held unless the fleet
// appended a whole archive's worth of records in between.
func (b *fleetBench) checkReads() (foreign, missing int) {
	written := map[string]bool{}
	for g := int64(0); g < b.nextOp.Load(); g++ {
		hive, _, t := b.wakeAt(g)
		written[recordKey(hive, t)] = true
		written[recordKey(hive, t.Add(uploadDelay))] = true
	}
	for _, reads := range b.reads {
		for _, rd := range reads {
			var got []store.Record
			if err := json.Unmarshal(rd.body, &got); err != nil {
				foreign++
				continue
			}
			hive, _, t := b.wakeAt(rd.g)
			seen := map[string]bool{}
			for _, r := range got {
				k := recordKey(r.Hive, r.Time)
				if r.Hive != hive || !written[k] {
					foreign++
				}
				seen[k] = true
			}
			// Each later wake appends two records.
			sheddable := 2*(rd.issued-rd.g) >= fleetArchive
			if !sheddable && (!seen[recordKey(hive, t)] || !seen[recordKey(hive, t.Add(uploadDelay))]) {
				missing++
			}
		}
	}
	return foreign, missing
}

func (b *fleetBench) pass(span time.Duration, sp *spans) (passResult, error) {
	return b.runPhases(span, sp, fleetLowRate, fleetHighRate, fleetLadder, func(w, i int) outcome {
		return b.wake(w, sp, b.nextOp.Add(1)-1)
	}), nil
}

func (b *fleetBench) probes(sp *spans, layer *metrics) error {
	b.hivenetLayer(sp, layer)
	scrape, err := probeMedian(sp, "obs.scrape", 20, ms, func() error {
		if rec := b.get("/metrics"); rec.Code != http.StatusOK {
			return fmt.Errorf("/metrics: status %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer.set("obs.scrape_ms", scrape, "ms")
	layer.set("obs.trace_events", float64(b.cfg.Tracer.Len()), "count")
	layer.set("ledger.entries", float64(b.cfg.Ledger.Len()), "count")
	d, err := sp.time("ledger.audit", -1, func() error {
		if rep := ledger.Audit(b.cfg.Ledger, ledger.DefaultTolerance()); !rep.OK() {
			return fmt.Errorf("server ledger: %s", rep)
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer.set("ledger.audit_ms", ms(d), "ms")
	if err := clipProbes(sp, layer, b.ref, b.pcm[0], 50); err != nil {
		return err
	}
	hive, _, t := b.wakeAt(0)
	report := proto.SensorReport{HiveID: hive, Time: t, InsideTempC: 31, InsideRH: 55, OutsideTempC: 12, BatterySoC: 0.7}
	if err := frameProbes(sp, layer, proto.TypeSensorReport, report, nil, 200); err != nil {
		return err
	}
	d, err = sp.time("svm.train", -1, func() error { _, err := trainReference(b.cfg); return err })
	if err != nil {
		return err
	}
	layer.set("svm.train_s", d.Seconds(), "s")
	if err := synthProbe(sp, layer, b.cfg); err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(b.rc.TmpDir, "probe-archive.log"))
	if err != nil {
		return err
	}
	st.SetCap(fleetArchive)
	var recs []store.Record
	for g := int64(0); g < 1000; g++ {
		hive, _, t := b.wakeAt(g)
		recs = append(recs, store.Record{Hive: hive, Time: t, Kind: store.KindSensor,
			Fields: map[string]float64{"inside_temp_c": 31, "inside_rh": 55, "outside_temp_c": 12, "battery_soc": 0.7}})
	}
	if err := storeProbes(sp, layer, st, recs); err != nil {
		return err
	}
	return st.Close()
}

func (b *fleetBench) check() []string {
	var fails []string
	st := b.srv.Stats()
	if got, want := st.Reports, int(b.reports.Load()); got != want {
		fails = append(fails, fmt.Sprintf("server counted %d reports, client sent %d acknowledged", got, want))
	}
	if got, want := st.Uploads, int(b.results.Load()); got != want {
		fails = append(fails, fmt.Sprintf("server counted %d uploads, client received %d results", got, want))
	}
	if n := b.srv.Archive().Len(); n > fleetArchive {
		fails = append(fails, fmt.Sprintf("archive index holds %d records, cap %d", n, fleetArchive))
	}
	foreign, missing := b.checkReads()
	if foreign > 0 {
		fails = append(fails, fmt.Sprintf("/api/records returned %d records the client never wrote", foreign))
	}
	if missing > 0 {
		fails = append(fails, fmt.Sprintf("%d /api/records reads lacked their own wake's records", missing))
	}
	if n := b.badHTTP.Load(); n > 0 {
		fails = append(fails, fmt.Sprintf("%d dashboard reads failed", n))
	}
	return fails
}
