// kwo-fleet runs a multi-tenant fleet: N independent simulated tenants
// — each its own virtual clock, warehouse, workload, and optimizer,
// seeded from one fleet seed — advanced in lock-step epochs through a
// bounded worker pool, then rolled up into cross-fleet KPIs. The rollup
// is byte-identical for any -workers value.
//
// Usage:
//
//	kwo-fleet -tenants 16 -epochs 48 -seed 7
//	kwo-fleet -tenants 64 -workers 8 -fault-rate 0.2 -format csv
//	kwo-fleet -slo degraded-time=0.1,savings-floor=0.02
//	kwo-fleet -obs-addr 127.0.0.1:9090 -obs-hold 30s
//	kwo-fleet -tenant 12 -seed 7            # replay tenant 12 standalone
//	kwo-fleet -tenant-seed 4242424242       # replay by derived seed
//	kwo-fleet -tenants 256 -cpuprofile cpu.out -memprofile mem.out
//	kwo-fleet -checkpoint-dir ckpt -checkpoint-every 8   # crash-safe run
//	kwo-fleet -checkpoint-dir ckpt -resume               # resume after a crash
//	kwo-fleet -alert-log alerts.jsonl -epoch-deadline 30s
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"kwo"
)

// parseSLO decodes the -slo flag: comma-separated key=value pairs
// naming objective thresholds. Unset keys keep their defaults.
func parseSLO(s string) (kwo.FleetSLO, error) {
	var cfg kwo.FleetSLO
	if s == "" {
		return cfg, nil
	}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return cfg, fmt.Errorf("-slo: %q is not key=value", pair)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return cfg, fmt.Errorf("-slo: %q: %v", pair, err)
		}
		switch strings.TrimSpace(key) {
		case "enforcement-sla":
			cfg.MaxAbandonRatio = v
		case "degraded-time":
			cfg.MaxDegradedRatio = v
		case "p99-factor":
			cfg.P99BandFactor = v
		case "p99-ratio":
			cfg.MaxP99BandRatio = v
		case "savings-floor":
			cfg.MinSavingsShare = v
		default:
			return cfg, fmt.Errorf("-slo: unknown key %q (enforcement-sla, degraded-time, p99-factor, p99-ratio, savings-floor)", key)
		}
	}
	return cfg, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. It returns the exit status instead of
// exiting, so the deferred profile writes happen on every path,
// failing runs included.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("kwo-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tenants := fs.Int("tenants", 8, "number of independent tenants")
	seed := fs.Int64("seed", 1, "fleet seed; tenant i runs under its own derived split")
	workers := fs.Int("workers", 0, "worker pool size (0 = one per CPU); never affects results")
	epochs := fs.Int("epochs", 48, "lock-step epochs to run")
	epochLen := fs.Duration("epoch-len", time.Hour, "simulated length of one epoch")
	attachEpoch := fs.Int("attach-epoch", 0, "epoch at which optimizers attach (0 = epochs/4)")
	faultRate := fs.Float64("fault-rate", 0, "probability a tenant lives behind an unreliable control-plane API")
	backends := fs.String("backends", "", "comma-separated CDW backend pool tenants draw from (snowflake, bigquery, redshift); empty = all snowflake")
	topK := fs.Int("top", 5, "how many regressed tenants the rollup highlights")
	slo := fs.String("slo", "", "SLO thresholds as key=value pairs (enforcement-sla, degraded-time, p99-factor, p99-ratio, savings-floor); empty = defaults")
	seriesBudget := fs.Int("series-budget", 0, "max points per recorded time series (0 = 64)")
	format := fs.String("format", "text", "rollup output: text, csv, json")
	obsAddr := fs.String("obs-addr", "", "serve the fleet ops endpoint (merged /metrics, /events) on this address")
	obsHold := fs.Duration("obs-hold", 0, "keep the process alive this long after the run (requires -obs-addr)")
	tenantIdx := fs.Int("tenant", -1, "replay this tenant index standalone instead of running the fleet")
	tenantSeed := fs.String("tenant-seed", "", "replay the tenant holding this derived seed standalone")
	checkpointDir := fs.String("checkpoint-dir", "", "write epoch-aligned crash-recovery checkpoints into this directory")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint cadence in epochs (0 = 8; requires -checkpoint-dir)")
	resume := fs.Bool("resume", false, "resume from the newest checkpoint in -checkpoint-dir instead of starting fresh")
	alertLog := fs.String("alert-log", "", "append SLO breach/recovery and quarantine alerts to this JSONL file; a failed write is not retried and makes the exit status non-zero")
	epochDeadline := fs.Duration("epoch-deadline", 0, "quarantine a tenant whose epoch step exceeds this wall-clock bound (0 = off)")
	panicTenant := fs.Int("panic-tenant", -1, "arm a panic probe on this tenant index (quarantine demo/testing)")
	panicEpoch := fs.Int("panic-epoch", 0, "epoch in which armed panic probes fire (0 = attach epoch + 1)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go test convention)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file after the run")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(msg string, a ...any) int {
		fmt.Fprintf(stderr, "kwo-fleet: "+msg+"\n", a...)
		return 1
	}

	// Profiles follow the go-test flag conventions so the output feeds
	// straight into `go tool pprof`. The CPU profile brackets the whole
	// run (provisioning + epochs + rollup); the heap profile is taken
	// after a final GC so it shows live memory, not garbage.
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return fail("start CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := pf.Close(); err != nil {
				status = fail("-cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			mf, err := os.Create(*memProfile)
			if err != nil {
				status = fail("-memprofile: %v", err)
				return
			}
			runtime.GC()
			err = pprof.WriteHeapProfile(mf)
			if cerr := mf.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				status = fail("write heap profile: %v", err)
			}
		}()
	}

	sloCfg, err := parseSLO(*slo)
	if err != nil {
		return fail("%v", err)
	}
	cfg := kwo.FleetConfig{
		Tenants:         *tenants,
		Seed:            *seed,
		Workers:         *workers,
		Epochs:          *epochs,
		EpochLen:        *epochLen,
		AttachEpoch:     *attachEpoch,
		FaultRate:       *faultRate,
		TopK:            *topK,
		SLO:             sloCfg,
		SeriesBudget:    *seriesBudget,
		CheckpointDir:   *checkpointDir,
		CheckpointEvery: *checkpointEvery,
		EpochDeadline:   *epochDeadline,
		PanicEpoch:      *panicEpoch,
	}
	if *epochDeadline > 0 {
		cfg.Wall = time.Now
	}
	if *panicTenant >= 0 {
		cfg.PanicTenants = []int{*panicTenant}
	}
	if *backends != "" {
		for _, name := range strings.Split(*backends, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := kwo.BackendByName(name); err != nil {
				return fail("-backends: %v", err)
			}
			cfg.Backends = append(cfg.Backends, name)
		}
	}

	// Replay mode: run one tenant standalone under the seed it holds (or
	// would hold) inside the fleet, and print its KPI row. Byte-identical
	// to the in-fleet run — same event and snapshot fingerprints.
	if *tenantIdx >= 0 || *tenantSeed != "" {
		s := kwo.FleetTenantSeed(*seed, *tenantIdx)
		if *tenantSeed != "" {
			v, err := strconv.ParseInt(*tenantSeed, 10, 64)
			if err != nil {
				return fail("-tenant-seed %q: %v", *tenantSeed, err)
			}
			s = v
		}
		kpi, err := kwo.ReplayFleetTenant(s, cfg)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "tenant replay (seed %d, %d epochs × %v):\n", s, cfg.Epochs, cfg.EpochLen)
		fmt.Fprintf(stdout, "  profile:   %s\n", kpi.Profile)
		fmt.Fprintf(stdout, "  queries:   %d  p99 %v\n", kpi.Queries, kpi.P99Latency.Round(10*time.Millisecond))
		fmt.Fprintf(stdout, "  credits:   %.2f actual, %.2f without (savings %.1f%%)\n",
			kpi.ActualCredits, kpi.WithoutKeebo, kpi.SavingsPercent)
		fmt.Fprintf(stdout, "  events:    %d (fingerprint %s)\n", kpi.ObsEvents, kpi.EventsFingerprint)
		fmt.Fprintf(stdout, "  snapshot:  %s\n", kpi.SnapshotFingerprint)
		for _, v := range kpi.SLO {
			state := "pass"
			if !v.Pass {
				state = "FAIL"
			}
			fmt.Fprintf(stdout, "  slo:       %-16s %s value %.4f target %.4f burn %.2f %s\n",
				v.Objective, state, v.Value, v.Target, v.Burn, v.Detail)
		}
		return 0
	}

	wallStart := time.Now()
	var f *kwo.Fleet
	var af *os.File
	if *alertLog != "" {
		af, err = os.OpenFile(*alertLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fail("-alert-log: %v", err)
		}
		cfg.AlertLog = af
	}
	if *resume {
		if *checkpointDir == "" {
			return fail("-resume requires -checkpoint-dir")
		}
		cp, path, lerr := kwo.LatestFleetCheckpoint(*checkpointDir)
		if lerr != nil {
			return fail("%v", lerr)
		}
		// Resume replays the checkpointed epochs deterministically and
		// verifies the replayed state against the checkpoint's digests
		// before continuing; the finished run's fingerprint is
		// byte-identical to one that was never interrupted. The merged
		// config (the checkpoint's behaviour knobs over this process's
		// operational flags) also feeds the closing banner.
		cfg = cp.Config.Merge(cfg)
		f, err = kwo.ResumeFleet(cp, cfg)
		if err == nil {
			fmt.Fprintf(stderr, "[resumed from %s at epoch %d/%d]\n", path, f.Epoch(), cp.Config.Epochs)
		}
	} else {
		f, err = kwo.NewFleet(cfg)
	}
	if err != nil {
		return fail("%v", err)
	}
	defer f.Close()
	// The ops endpoint serves the merged view live while the fleet runs;
	// its notes go to stderr so stdout stays byte-deterministic.
	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return fail("obs endpoint: %v", err)
		}
		fmt.Fprintf(stderr, "[fleet obs endpoint on http://%s/metrics]\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, f.ObsHandler()); err != nil {
				fmt.Fprintf(stderr, "[obs endpoint: %v]\n", err)
			}
		}()
	}
	rep, err := f.Run()
	if err != nil {
		return fail("%v", err)
	}
	switch *format {
	case "text":
		_, err = io.WriteString(stdout, rep.String())
	case "csv":
		err = rep.WriteCSV(stdout)
	case "json":
		err = rep.WriteJSON(stdout)
	default:
		err = fmt.Errorf("unknown -format %q (text, csv, json)", *format)
	}
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stderr, "[%d tenants × %d epochs in %v wall-clock]\n",
		cfg.Tenants, cfg.Epochs, time.Since(wallStart).Round(time.Millisecond))
	// The fleet writes alerts on epoch barriers only, so the log is
	// complete once Run returns. Its failures go to stderr and the exit
	// status, leaving stdout the report alone.
	if af != nil {
		if n := f.SLOStatus().Alerts.SinkErrors; n > 0 {
			status = fail("-alert-log %s: %d alert writes failed", *alertLog, n)
		}
		if err := af.Close(); err != nil {
			status = fail("-alert-log: %v", err)
		}
	}
	if *obsAddr != "" && *obsHold > 0 {
		fmt.Fprintf(stderr, "[holding ops endpoint for %v]\n", *obsHold)
		time.Sleep(*obsHold)
	}
	return status
}
