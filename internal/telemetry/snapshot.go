package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"kwo/internal/cdw"
)

// Snapshot serialization: a Store can be written as JSON lines and read
// back, so telemetry survives process restarts and can be shipped
// between tools (Simulation.WriteSnapshot records a run; ReadSnapshot
// loads it back). Each line is a tagged record.

type snapshotLine struct {
	Kind    string          `json:"kind"` // "query" | "event" | "change" | "billing"
	Query   *queryJSON      `json:"query,omitempty"`
	Event   *eventJSON      `json:"event,omitempty"`
	Change  *configChangeJS `json:"change,omitempty"`
	Billing *billingJSON    `json:"billing,omitempty"`
}

type billingJSON struct {
	Warehouse string  `json:"wh"`
	HourMS    int64   `json:"hour"`
	Credits   float64 `json:"credits"`
}

type queryJSON struct {
	QueryID      uint64 `json:"id"`
	Warehouse    string `json:"wh"`
	TextHash     uint64 `json:"text"`
	TemplateHash uint64 `json:"tmpl"`
	UserHash     uint64 `json:"user"`
	SubmitMS     int64  `json:"submit"`
	StartMS      int64  `json:"start"`
	EndMS        int64  `json:"end"`
	Bytes        int64  `json:"bytes"`
	Size         int    `json:"size"`
	Clusters     int    `json:"clusters"`
	Cold         bool   `json:"cold,omitempty"`
	Resumed      bool   `json:"resumed,omitempty"`
}

type eventJSON struct {
	TimeMS    int64  `json:"t"`
	Warehouse string `json:"wh"`
	Kind      int    `json:"kind"`
	Clusters  int    `json:"clusters"`
}

type configChangeJS struct {
	TimeMS    int64      `json:"t"`
	Warehouse string     `json:"wh"`
	Before    configJSON `json:"before"`
	After     configJSON `json:"after"`
	Actor     string     `json:"actor"`
	Statement string     `json:"stmt"`
}

type configJSON struct {
	Name        string `json:"name"`
	Size        int    `json:"size"`
	MinClusters int    `json:"min"`
	MaxClusters int    `json:"max"`
	Policy      int    `json:"policy"`
	SuspendSecs int    `json:"suspend"`
	AutoResume  bool   `json:"resume"`
}

func toConfigJSON(c cdw.Config) configJSON {
	return configJSON{
		Name: c.Name, Size: int(c.Size), MinClusters: c.MinClusters,
		MaxClusters: c.MaxClusters, Policy: int(c.Policy),
		SuspendSecs: int(c.AutoSuspend.Seconds()), AutoResume: c.AutoResume,
	}
}

func fromConfigJSON(c configJSON) cdw.Config {
	return cdw.Config{
		Name: c.Name, Size: cdw.Size(c.Size), MinClusters: c.MinClusters,
		MaxClusters: c.MaxClusters, Policy: cdw.ScalingPolicy(c.Policy),
		AutoSuspend: time.Duration(c.SuspendSecs) * time.Second, AutoResume: c.AutoResume,
	}
}

// WriteSnapshot serializes the store as JSON lines, warehouse by
// warehouse in first-seen order, queries before events before changes.
func (s *Store) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, name := range s.Warehouses() {
		l := s.Log(name)
		for _, q := range l.Queries {
			line := snapshotLine{Kind: "query", Query: &queryJSON{
				QueryID: q.QueryID, Warehouse: q.Warehouse,
				TextHash: q.TextHash, TemplateHash: q.TemplateHash, UserHash: q.UserHash,
				SubmitMS: q.SubmitTime.UnixMilli(), StartMS: q.StartTime.UnixMilli(),
				EndMS: q.EndTime.UnixMilli(), Bytes: q.BytesScanned,
				Size: int(q.Size), Clusters: q.Clusters, Cold: q.ColdRead, Resumed: q.Resumed,
			}}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("telemetry: write snapshot: %w", err)
			}
		}
		for _, e := range l.Events {
			line := snapshotLine{Kind: "event", Event: &eventJSON{
				TimeMS: e.Time.UnixMilli(), Warehouse: e.Warehouse,
				Kind: int(e.Kind), Clusters: e.Clusters,
			}}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("telemetry: write snapshot: %w", err)
			}
		}
		for _, c := range l.Changes {
			line := snapshotLine{Kind: "change", Change: &configChangeJS{
				TimeMS: c.Time.UnixMilli(), Warehouse: c.Warehouse,
				Before: toConfigJSON(c.Before), After: toConfigJSON(c.After),
				Actor: c.Actor, Statement: c.Statement,
			}}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("telemetry: write snapshot: %w", err)
			}
		}
		for _, r := range l.Billing {
			line := snapshotLine{Kind: "billing", Billing: &billingJSON{
				Warehouse: r.Warehouse, HourMS: r.HourStart.UnixMilli(), Credits: r.Credits,
			}}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("telemetry: write snapshot: %w", err)
			}
		}
	}
	return nil
}

// SnapshotBytes serializes the store to an in-memory snapshot. Two
// stores with identical telemetry produce byte-identical output, which
// is the determinism oracle the simulation tests rely on.
func (s *Store) SnapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadSnapshot parses a snapshot into a fresh Store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	s := NewStore()
	dec := json.NewDecoder(r)
	for dec.More() {
		var line snapshotLine
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("telemetry: read snapshot: %w", err)
		}
		switch line.Kind {
		case "query":
			q := line.Query
			if q == nil {
				return nil, fmt.Errorf("telemetry: query line without payload")
			}
			submit := time.UnixMilli(q.SubmitMS).UTC()
			start := time.UnixMilli(q.StartMS).UTC()
			end := time.UnixMilli(q.EndMS).UTC()
			s.OnQuery(cdw.QueryRecord{
				QueryID: q.QueryID, Warehouse: q.Warehouse,
				TextHash: q.TextHash, TemplateHash: q.TemplateHash, UserHash: q.UserHash,
				SubmitTime: submit, StartTime: start, EndTime: end,
				QueueDuration: start.Sub(submit), ExecDuration: end.Sub(start),
				BytesScanned: q.Bytes, Size: cdw.Size(q.Size), Clusters: q.Clusters,
				ColdRead: q.Cold, Resumed: q.Resumed,
			})
		case "event":
			e := line.Event
			if e == nil {
				return nil, fmt.Errorf("telemetry: event line without payload")
			}
			s.OnWarehouseEvent(cdw.WarehouseEvent{
				Time: time.UnixMilli(e.TimeMS).UTC(), Warehouse: e.Warehouse,
				Kind: cdw.EventKind(e.Kind), Clusters: e.Clusters,
			})
		case "change":
			c := line.Change
			if c == nil {
				return nil, fmt.Errorf("telemetry: change line without payload")
			}
			s.OnChange(cdw.ConfigChange{
				Time: time.UnixMilli(c.TimeMS).UTC(), Warehouse: c.Warehouse,
				Before: fromConfigJSON(c.Before), After: fromConfigJSON(c.After),
				Actor: c.Actor, Statement: c.Statement,
			})
		case "billing":
			b := line.Billing
			if b == nil {
				return nil, fmt.Errorf("telemetry: billing line without payload")
			}
			s.AddBilling(b.Warehouse, []cdw.HourlyRecord{{
				Warehouse: b.Warehouse,
				HourStart: time.UnixMilli(b.HourMS).UTC(),
				Credits:   b.Credits,
			}})
		default:
			return nil, fmt.Errorf("telemetry: unknown snapshot line kind %q", line.Kind)
		}
	}
	return s, nil
}
