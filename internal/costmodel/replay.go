package costmodel

import (
	"time"

	"kwo/internal/telemetry"
)

// ReplayResult is the outcome of a without-Keebo what-if replay over a
// time range (§5.1).
type ReplayResult struct {
	From, To time.Time

	// Credits is the estimated billable cost had none of KWO's
	// optimizations been applied.
	Credits float64
	// ActiveSeconds is the estimated warehouse-active wall-clock
	// (single-cluster equivalent seconds before the cluster
	// multiplier).
	ActiveSeconds float64
	// Resumes is the number of distinct busy periods, each of which
	// would have incurred a resume (and the 60-second minimum).
	Resumes int
	// Queries is how many telemetry rows were replayed.
	Queries int
}

// busyPeriod is one contiguous interval in which the without-Keebo
// warehouse would have been running: queries executing back-to-back,
// bridged whenever the next arrival lands before the auto-suspend
// timer would have fired.
type busyPeriod struct {
	start time.Time
	end   time.Time // last completion; billing extends by auto-suspend
}

// billedIv is the billable extent of one busy period: the period plus
// the auto-suspend idle tail, quantized under the backend's billing
// rule (per-start minimum floor, then quantum round-up). Because
// busy-period starts strictly increase and each period begins after the
// previous one's auto-suspend fired, billed starts AND billed ends are
// strictly increasing across periods — which is what lets Replay find
// the intervals overlapping a window with a rolling index instead of a
// scan.
type billedIv struct {
	start, end time.Time
}

// overlapSecs returns the overlap of iv with [w, wEnd) in seconds.
func (iv billedIv) overlapSecs(w, wEnd time.Time) float64 {
	s, e := iv.start, iv.end
	if s.Before(w) {
		s = w
	}
	if e.After(wEnd) {
		e = wEnd
	}
	if e.After(s) {
		return e.Sub(s).Seconds()
	}
	return 0
}

// predictClusters applies the cluster model to one mini-window's
// arrival statistics under the original configuration's bounds.
func (m *Model) predictClusters(qph, avgExecSecs float64) float64 {
	orig := m.Orig
	clusters := 1.0
	if orig.MaxClusters > 1 {
		clusters = m.Clusters.Predict(qph, avgExecSecs, orig.MaxClusters)
		if clusters < float64(orig.MinClusters) {
			clusters = float64(orig.MinClusters)
		}
	} else if orig.MinClusters > 1 {
		clusters = float64(orig.MinClusters)
	}
	return clusters
}

// windowCredits prices one mini-window: active overlap × predicted
// clusters × the original size's hourly rate.
func (m *Model) windowCredits(activeSecs float64, w, wEnd time.Time, n int, sumExecSecs float64) float64 {
	var qph, avgExec float64
	if hours := wEnd.Sub(w).Hours(); hours > 0 {
		qph = float64(n) / hours
	}
	if n > 0 {
		avgExec = sumExecSecs / float64(n)
	}
	return activeSecs / 3600 * m.Orig.Size.CreditsPerHour() * m.predictClusters(qph, avgExec)
}

// Replay estimates the without-Keebo cost of the queries submitted in
// [from, to) on the warehouse whose telemetry is log, assuming the
// customer's original configuration orig had been in effect the whole
// time.
//
// It walks the recorded queries in submission order (gaps between
// arrivals are preserved, per §5.2: "the gaps should not change with
// warehouse optimization"), rescales each execution time from the size
// it actually ran at to the original size using the latency model,
// merges executions into busy periods bridged by the original
// auto-suspend interval, predicts the cluster count per mini-window
// using the cluster model, and prices the result at the original
// size's hourly rate.
//
// Cost is O(R log N + W): the record range is a binary-searched view
// of the submit index, and the pricing pass walks records and billed
// intervals with rolling pointers rather than rescanning them per
// window.
func (m *Model) Replay(log *telemetry.WarehouseLog, from, to time.Time) ReplayResult {
	res := ReplayResult{From: from, To: to}
	recs := log.SubmittedBetween(from, to)
	res.Queries = len(recs)
	if len(recs) == 0 {
		return res
	}
	orig := m.Orig
	autoSuspend := orig.AutoSuspend
	if autoSuspend <= 0 {
		// A warehouse with auto-suspend disabled would have run
		// continuously; model it as a very long bridge.
		autoSuspend = to.Sub(from)
	}

	// Pass 1: busy periods at the original size.
	var periods []busyPeriod
	var cur *busyPeriod
	for _, r := range recs {
		exec := m.Latency.ScaleExec(r.TemplateHash, r.ExecDuration.Seconds(), r.Size, orig.Size)
		start := r.SubmitTime
		end := start.Add(time.Duration(exec * float64(time.Second)))
		if cur != nil && !start.After(cur.end.Add(autoSuspend)) {
			if end.After(cur.end) {
				cur.end = end
			}
			continue
		}
		if cur != nil {
			periods = append(periods, *cur)
		}
		cur = &busyPeriod{start: start, end: end}
	}
	if cur != nil {
		periods = append(periods, *cur)
	}
	res.Resumes = len(periods)

	// Pass 2: billed intervals — each busy period runs on for the
	// auto-suspend interval after its last completion (idle billing),
	// quantized under the backend's billing rule.
	billedIvs := make([]billedIv, 0, len(periods))
	for _, p := range periods {
		iv := billedIv{p.start, m.Billing.BilledEnd(p.start, p.end.Add(autoSuspend))}
		billedIvs = append(billedIvs, iv)
		res.ActiveSeconds += iv.end.Sub(iv.start).Seconds()
	}

	// Pass 3: price each mini-window: overlap of billed intervals with
	// the window × predicted cluster count × original hourly rate.
	// Billed starts and ends both increase, so the intervals touching a
	// window form a contiguous range; records are submit-sorted, so
	// each window's arrivals do too. Both pointers only move forward.
	horizon := billedIvs[len(billedIvs)-1].end
	ivLo, ri := 0, 0
	for w := from.Truncate(MiniWindow); w.Before(horizon); w = w.Add(MiniWindow) {
		wEnd := w.Add(MiniWindow)
		for ivLo < len(billedIvs) && !billedIvs[ivLo].end.After(w) {
			ivLo++
		}
		var activeSecs float64
		for i := ivLo; i < len(billedIvs); i++ {
			if !billedIvs[i].start.Before(wEnd) {
				break
			}
			activeSecs += billedIvs[i].overlapSecs(w, wEnd)
		}
		if activeSecs == 0 {
			continue
		}
		for ri < len(recs) && recs[ri].SubmitTime.Before(w) {
			ri++
		}
		var n int
		var sumExec float64
		for j := ri; j < len(recs) && recs[j].SubmitTime.Before(wEnd); j++ {
			n++
			sumExec += m.Latency.ScaleExec(recs[j].TemplateHash, recs[j].ExecDuration.Seconds(), recs[j].Size, orig.Size)
		}
		res.Credits += m.windowCredits(activeSecs, w, wEnd, n, sumExec)
	}
	return res
}
