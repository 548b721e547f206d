// kwo-portal serves KWO's JSON API (§4.1) over a live simulation:
// virtual warehouse time advances in lock-step with wall time at a
// configurable speed-up, so dashboards evolve while you watch, and
// slider/constraint changes made through the API affect the running
// optimizer.
//
// Usage:
//
//	kwo-portal -listen :8080 -speedup 3600    # 1 wall second = 1 virtual hour
//	curl localhost:8080/api/v1/status
//	curl localhost:8080/api/v1/warehouses
//	curl localhost:8080/api/v1/warehouses/BI_WH/report?from=-24h
//	curl -X PUT -d '{"position":5}' localhost:8080/api/v1/warehouses/BI_WH/slider
//
// With -once and no fleet source the portal instead advances the same
// simulation a fixed week past attach and prints the text dashboard:
// per-warehouse KPIs, daily and hourly series, invoices, metrics and
// recent events:
//
//	kwo-portal -once
//
// With -fleet-url the portal instead renders the fleet view over a
// running kwo-fleet ops endpoint (sparklines, SLO/error-budget table,
// replay drill-downs); add -once to print a single snapshot and exit:
//
//	kwo-fleet -tenants 8 -obs-addr 127.0.0.1:9090 -obs-hold 10m &
//	kwo-portal -fleet-url http://127.0.0.1:9090 -once
//	kwo-portal -fleet-url http://127.0.0.1:9090 -listen :8080
//
// With -checkpoint the same view renders offline from a crash-recovery
// checkpoint file — inspecting a crashed fleet without a running one.
// The portal replays the checkpoint's epochs, exactly as kwo-fleet
// -resume would, and refuses a checkpoint this build cannot reproduce:
//
//	kwo-portal -checkpoint ckpt/fleet-epoch-000040.ckpt.json
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"kwo"
)

// portalHistory is the simulated history both single-tenant modes run
// before attaching the optimizer.
const portalHistory = 2 * 24 * time.Hour

// portalWarehouses are the warehouses of the portal's simulation.
var portalWarehouses = []string{"BI_WH", "ETL_WH"}

// newPortalSim builds the simulation the API and -once modes serve: a
// BI and an ETL warehouse with two days of history, both attached to a
// started optimizer.
func newPortalSim(seed int64) (*kwo.Simulation, *kwo.Optimizer, error) {
	sim := kwo.NewSimulation(seed)
	if _, err := sim.CreateWarehouse(kwo.WarehouseConfig{
		Name: "BI_WH", Size: kwo.SizeLarge, MinClusters: 1, MaxClusters: 2,
		AutoSuspend: 10 * time.Minute, AutoResume: true,
	}); err != nil {
		return nil, nil, err
	}
	if _, err := sim.CreateWarehouse(kwo.WarehouseConfig{
		Name: "ETL_WH", Size: kwo.SizeMedium, MinClusters: 1, MaxClusters: 1,
		AutoSuspend: 10 * time.Minute, AutoResume: true,
	}); err != nil {
		return nil, nil, err
	}
	sim.AddWorkload("BI_WH", kwo.BIDashboards(60), 90*24*time.Hour)
	sim.AddWorkload("ETL_WH", kwo.ETLPipeline(time.Hour, 6), 90*24*time.Hour)

	sim.RunFor(portalHistory)
	opt := sim.NewOptimizer(kwo.DefaultOptions())
	for _, wh := range portalWarehouses {
		if err := opt.Attach(wh, kwo.Settings{Slider: kwo.Balanced}); err != nil {
			return nil, nil, err
		}
	}
	opt.Start()
	return sim, opt, nil
}

func main() {
	listen := flag.String("listen", ":8080", "address to serve the API on")
	speedup := flag.Float64("speedup", 3600, "virtual seconds per wall second")
	seed := flag.Int64("seed", 1, "simulation seed")
	fleetURL := flag.String("fleet-url", "", "render the fleet view over this kwo-fleet ops endpoint instead of serving the single-tenant API")
	checkpoint := flag.String("checkpoint", "", "render the fleet view offline by replaying this crash-recovery checkpoint file to its epoch")
	once := flag.Bool("once", false, "print one view to stdout and exit: the fleet view with -fleet-url, else the dashboard a simulated week past attach")
	flag.Parse()

	if *fleetURL != "" || *checkpoint != "" {
		fleetMain(*fleetURL, *checkpoint, *listen, *once)
		return
	}
	sim, opt, err := newPortalSim(*seed)
	if err != nil {
		log.Fatalf("kwo-portal: %v", err)
	}
	if *once {
		sim.RunFor(onceSpan)
		v, err := collectOnceView(sim, opt)
		if err != nil {
			log.Fatalf("kwo-portal: %v", err)
		}
		fmt.Print(renderOnceView(v))
		return
	}

	// Advance virtual time with wall time; the portal calls this under
	// its own lock before each request.
	lastWall := time.Now()
	advance := func() {
		now := time.Now()
		elapsed := now.Sub(lastWall)
		lastWall = now
		virtual := time.Duration(float64(elapsed) * *speedup)
		if virtual > 30*24*time.Hour {
			virtual = 30 * 24 * time.Hour // cap a long pause
		}
		sim.RunFor(virtual)
	}

	fmt.Printf("kwo-portal: serving on %s (1 wall second = %v of warehouse time)\n",
		*listen, time.Duration(*speedup*float64(time.Second)))
	fmt.Println("try: curl localhost" + *listen + "/api/v1/status")
	log.Fatal(http.ListenAndServe(*listen, opt.PortalWithAdvance(advance)))
}
