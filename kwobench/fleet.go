package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"kwo/internal/fleet"
	"kwo/internal/obs"
)

const (
	// ingestTenants is the fleet width of fleet-ingest: 256 rather than
	// 1024 keeps the live heap near 85 MB instead of 250 MB, which makes
	// the run much less sensitive to drift in the host's memory speed
	// (README.md, Workloads).
	ingestTenants = 256
	// ingestWarm is how many epochs fleet-ingest runs during set-up: a
	// simulated day, so that setup_s is some 0.3 s of uniform epochs.
	// With 2 warm epochs set-up took 50 ms, and two sets of ten runs
	// put its medians 39% apart while sim_hours_per_s moved 25%.
	ingestWarm = 24
	// ingestEpochs is how many hourly epochs a fleet-ingest lap measures.
	ingestEpochs = 48
	// ingestCheckpointEvery is the checkpoint cadence, in epochs.
	ingestCheckpointEvery = 16
	// ingestTailRounds is how many times a lap reads each tenant's event
	// tail: 4 rounds of 256 put ten reads beyond each lap's p99.
	ingestTailRounds = 4

	// opsTenants is the fleet width of ops-read.
	opsTenants = 128
	// opsWarm is ops-read's set-up: a week of hourly epochs.
	opsWarm = 7 * 24
	// opsEpochs is how many epoch-then-reads iterations a lap measures:
	// 52 iterations of 20 reads put ten reads beyond each lap's p99.
	opsEpochs = 52
	// opsDrill is how many tenants are drilled into per iteration.
	opsDrill = 8
)

// checkpointRoot holds fleet-ingest's checkpoint files; each lap
// writes into its own fresh subdirectory and removes it.
var checkpointRoot = filepath.Join(scratchRoot, "checkpoints")

// fleetIngest is the fleet's write path: a wide fleet in hourly epochs
// whose optimizers never attach, checkpointed every few epochs.
var fleetIngest = scenario{
	name:    "fleet-ingest",
	why:     "256 tenants in hourly epochs on 2 workers, checkpointed, no optimizer: workload cursors, cdw, telemetry ingest, obs-plane sampling, checkpoint encoding",
	tenants: ingestTenants,
	newLap: func(seed int64, tr *tracer) (lap, error) {
		if err := os.MkdirAll(checkpointRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(checkpointRoot, "lap-")
		if err != nil {
			return nil, err
		}
		l, err := newFleetLap(seed, ingestTenants, ingestWarm, ingestEpochs, dir, (*fleetLap).tailReads, tr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return l, nil
	},
}

// opsRead is the fleet's read side: a smaller fleet warmed for a week,
// then a closed loop of one epoch followed by a portal refresh, a
// Prometheus scrape and per-tenant drill-downs.
var opsRead = scenario{
	name:    "ops-read",
	why:     "128 tenants warmed a week, then one epoch and a portal refresh, a /metrics scrape and tenant drill-downs per loop: the read side of obs and fleet",
	tenants: opsTenants,
	newLap: func(seed int64, tr *tracer) (lap, error) {
		return newFleetLap(seed, opsTenants, opsWarm, opsEpochs, "", (*fleetLap).portalReads, tr)
	},
}

type fleetLap struct {
	f       *fleet.Fleet
	ops     http.Handler
	ids     []string
	warm    int
	epochs  int
	ckptDir string
	last    string // newest checkpoint file, kept until finish
	// readsAt lists the requests issued after epoch i.
	readsAt func(l *fleetLap, i int) []read
}

// newFleetLap provisions a fleet whose optimizers attach only after the
// last measured epoch, and runs the warm-up epochs. readsAt lists the
// requests issued after each measured epoch.
func newFleetLap(seed int64, tenants, warm, epochs int, ckptDir string,
	readsAt func(l *fleetLap, i int) []read, tr *tracer) (*fleetLap, error) {
	cfg := fleet.Config{
		Tenants: tenants,
		Seed:    seed,
		Workers: runtime.NumCPU(),
		Epochs:  warm + epochs + 2,
		// Beyond every measured epoch: no optimizer ever attaches.
		AttachEpoch: warm + epochs + 1,
	}
	if ckptDir != "" {
		cfg.CheckpointDir = ckptDir
		// The benchmark writes checkpoints itself, so it can time them.
		cfg.CheckpointEvery = cfg.Epochs + 1
	}
	id := tr.begin("fleet.New")
	f, err := fleet.New(cfg)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	for e := 0; e < warm; e++ {
		if err := f.RunEpoch(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &fleetLap{f: f, ops: fleet.Handler(f), ids: fleet.TenantIDs(tenants),
		warm: warm, epochs: epochs, ckptDir: ckptDir, readsAt: readsAt}, nil
}

func (l *fleetLap) units() int { return l.epochs }

func (l *fleetLap) step(i int, tr *tracer) (float64, error) {
	id := tr.begin("Fleet.RunEpoch")
	err := l.f.RunEpoch()
	tr.end(id, 0)
	if err != nil {
		return 0, err
	}
	hours := float64(len(l.ids)) * l.f.Config().EpochLen.Hours()
	if l.ckptDir == "" || (i+1)%ingestCheckpointEvery != 0 {
		return hours, nil
	}
	id = tr.begin("Fleet.WriteCheckpoint")
	err = l.f.WriteCheckpoint()
	var path string
	var size int64
	if err == nil {
		path, size, err = l.newCheckpoint()
	}
	tr.end(id, int(size))
	if err != nil {
		return hours, fmt.Errorf("checkpoint: %w", err)
	}
	if l.last != "" {
		os.Remove(l.last)
	}
	l.last = path
	return hours, nil
}

// newCheckpoint finds the file the last WriteCheckpoint added to the
// lap's checkpoint directory, which holds at most one older file.
func (l *fleetLap) newCheckpoint() (string, int64, error) {
	entries, err := os.ReadDir(l.ckptDir)
	if err != nil {
		return "", 0, err
	}
	for _, e := range entries {
		path := filepath.Join(l.ckptDir, e.Name())
		if path == l.last {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return "", 0, err
		}
		return path, info.Size(), nil
	}
	return "", 0, fmt.Errorf("no file in %s", l.ckptDir)
}

func (l *fleetLap) reads(i int) []read { return l.readsAt(l, i) }

// tailReads spreads ingestTailRounds reads of every tenant's event
// tail over fleet-ingest's epochs.
func (l *fleetLap) tailReads(i int) []read {
	var rs []read
	total := ingestTailRounds * len(l.ids)
	per := (total + l.epochs - 1) / l.epochs
	for k := i * per; k < (i+1)*per && k < total; k++ {
		rs = append(rs, read{name: "GET /events?tenant", path: "/events?n=20&tenant=" + l.ids[k%len(l.ids)],
			kind: bodyNDJSON, digest: true})
	}
	return rs
}

// portalReads is ops-read's refresh after every epoch: the portal's
// three fleet endpoints, one /metrics scrape and opsDrill tenant
// drill-downs. Every body is checked; those of the last epoch are also
// digested, and its /metrics scrape fully parsed.
func (l *fleetLap) portalReads(i int) []read {
	digest := i == l.epochs-1
	rs := []read{
		{name: "GET /fleet/kpis", path: "/fleet/kpis", kind: bodyJSON, digest: digest},
		{name: "GET /fleet/timeseries", path: "/fleet/timeseries", kind: bodyJSON, digest: digest},
		{name: "GET /fleet/slo", path: "/fleet/slo", kind: bodyJSON, digest: digest},
		{name: "GET /metrics", path: "/metrics", kind: bodyMetrics, tenants: l.ids, digest: digest},
	}
	for k := 0; k < opsDrill; k++ {
		tenant := l.ids[(i*opsDrill+k)%len(l.ids)]
		rs = append(rs,
			read{name: "GET /fleet/timeseries?tenant", path: "/fleet/timeseries?tenant=" + tenant, kind: bodyJSON, digest: digest},
			read{name: "GET /fleet/slo?tenant", path: "/fleet/slo?tenant=" + tenant, kind: bodyJSON, digest: digest},
		)
	}
	return rs
}

func (l *fleetLap) handler() http.Handler { return l.ops }

func (l *fleetLap) registries() []*obs.Registry {
	regs := l.f.Registries()
	out := make([]*obs.Registry, len(regs))
	for i, r := range regs {
		out[i] = r.Registry
	}
	return out
}

func (l *fleetLap) steps() int64 { return -1 }

// finish checks that no tenant was quarantined and that the newest
// checkpoint reloads, then removes it. The digest is the checkpoint's
// bytes where there is one, else the fleet's live KPIs.
func (l *fleetLap) finish(c *checker) string {
	kpis := l.f.KPIs()
	if err := checkQuarantine(kpis); err != nil {
		c.fail("%v", err)
	}
	if l.ckptDir == "" {
		return digestJSON(c, kpis)
	}
	defer os.RemoveAll(l.ckptDir)
	if l.last == "" {
		c.fail("no checkpoint written")
		return ""
	}
	data, err := checkCheckpoint(l.last, l.warm+l.epochs)
	if err != nil {
		c.fail("%v", err)
	}
	return digestBytes(data)
}

func (l *fleetLap) close() { l.f.Close() }
