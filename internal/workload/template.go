// Package workload generates synthetic query workloads with the shapes
// the paper's evaluation relies on: highly recurring ETL schedules,
// cache-sensitive business-hours BI traffic, and unpredictable ad-hoc
// analytics with bursts and month-end spikes.
//
// Generators are pure: given a time range and a seeded random source
// they return a deterministic list of arrivals. Each shape is one
// streaming cursor (Stream) that hands the arrivals out chunk by chunk,
// and its Generate drains that cursor in one whole-horizon chunk. A
// Driver schedules the arrivals onto a simulated account. Traces can be serialized and
// replayed, which keeps experiments reproducible and lets the cost model
// be evaluated on frozen workloads.
package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"kwo/internal/cdw"
)

// Template describes one recurring query class: its resource profile
// and how individual executions vary around it.
type Template struct {
	// Name identifies the template; only its hash ever reaches
	// telemetry (security criterion C6).
	Name string

	// WorkMean is the mean warm X-Small execution time in seconds.
	// Individual executions draw from a lognormal around this mean
	// with WorkSigma as the log-space standard deviation.
	WorkMean  float64
	WorkSigma float64

	// ScaleExp is the size-scaling exponent (see cdw.Query.ScaleExp).
	ScaleExp float64

	// ColdFactor is the relative cold-cache slowdown.
	ColdFactor float64

	// BytesMean is the mean bytes scanned per execution.
	BytesMean int64
}

// Hash returns the template's stable identity hash, a stand-in for
// hashing the normalized query text.
func (t Template) Hash() uint64 { return hash64("template:" + t.Name) }

// Instantiate draws one concrete query from the template. seqno
// distinguishes the query text hash of repeated executions with
// different literal constants.
func (t Template) Instantiate(rng *rand.Rand, seqno uint64, userHash uint64) cdw.Query {
	work := t.WorkMean
	if t.WorkSigma > 0 {
		work = lognormal(rng, t.WorkMean, t.WorkSigma)
	}
	bytes := t.BytesMean
	if bytes > 0 {
		bytes = int64(float64(bytes) * (0.5 + rng.Float64()))
	}
	return cdw.Query{
		TextHash:     hash64(fmt.Sprintf("text:%s:%d", t.Name, seqno)),
		TemplateHash: t.Hash(),
		UserHash:     userHash,
		Work:         work,
		ScaleExp:     t.ScaleExp,
		ColdFactor:   t.ColdFactor,
		BytesScanned: bytes,
	}
}

// lognormal draws a lognormal variate whose mean is mean and whose
// log-space standard deviation is sigma.
func lognormal(rng *rand.Rand, mean, sigma float64) float64 {
	// If X ~ LogNormal(mu, sigma) then E[X] = exp(mu + sigma^2/2).
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// hash64 hashes a string to a uint64 via SHA-256, mirroring the paper's
// "securely hashed" query texts and usernames.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// UserHash returns the hash for a synthetic user name.
func UserHash(name string) uint64 { return hash64("user:" + name) }

// Pool is a weighted set of templates; generators draw from it with a
// Zipf-like skew so some templates recur much more than others, the way
// dashboard queries dominate BI warehouses.
type Pool struct {
	Templates []Template
	weights   []float64
	total     float64
}

// NewPool builds a pool where template i has weight 1/(i+1)^skew.
// skew = 0 gives uniform draws; skew around 1 gives the heavy reuse
// typical of dashboards.
func NewPool(templates []Template, skew float64) *Pool {
	p := &Pool{Templates: templates}
	for i := range templates {
		w := 1.0 / math.Pow(float64(i+1), skew)
		p.weights = append(p.weights, w)
		p.total += w
	}
	return p
}

// Draw picks a template according to the pool weights.
func (p *Pool) Draw(rng *rand.Rand) Template {
	x := rng.Float64() * p.total
	for i, w := range p.weights {
		x -= w
		if x <= 0 {
			return p.Templates[i]
		}
	}
	return p.Templates[len(p.Templates)-1]
}

// Len returns the number of templates in the pool.
func (p *Pool) Len() int { return len(p.Templates) }
